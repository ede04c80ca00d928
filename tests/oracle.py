"""Plain-scalar reference recomputations of every model objective.

Everything here works on Python floats and lists extracted from the model
state, replaying recorded eps draws in the documented order. numpy appears
only for array-to-list conversion and (for the correlation objective) an
independent SVD; no mvx computation path is reused. The one exception is
`LoopAdam`, the per-parameter numpy Adam loop that the trainer's flat
phase-group Adam must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


# -- scalar linear algebra ------------------------------------------------------


def _affine(w, b, x):
    cols = len(w[0])
    return [sum(w[i][j] * x[i] for i in range(len(x))) + (b[j] if b is not None else 0.0)
            for j in range(cols)]


def _act(v, kind):
    if kind == "tanh":
        return [math.tanh(u) for u in v]
    return [max(0.0, u) for u in v]


def _layers_of(net):
    return [(w.data.tolist(), None if b is None else b.data.tolist())
            for w, b in net.layers]


def mlp_forward(net, x):
    """Scalar forward pass mirroring Mlp.forward for one sample."""
    layers = _layers_of(net)
    h = list(x)
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        h = _affine(w, b, h)
        if i < last and net.spec.non_linear:
            h = _act(h, net.spec.activation)
    if net.spec.activation == "sigmoid-final":
        h = [1.0 / (1.0 + math.exp(-u)) for u in h]
    return h


def venc_forward(enc, x):
    """Scalar forward of a VariationalEncoder -> (mean, log_var) with clamp."""
    h = list(x)
    for w, b in [(w.data.tolist(), None if b is None else b.data.tolist())
                 for w, b in enc.trunk]:
        h = _affine(w, b, h)
        if enc.spec.non_linear:
            h = _act(h, enc.spec.activation)
    mean = _affine(enc.w_mean.data.tolist(),
                   None if enc.b_mean is None else enc.b_mean.data.tolist(), h)
    log_var = _affine(enc.w_log_var.data.tolist(),
                      None if enc.b_log_var is None else enc.b_log_var.data.tolist(), h)
    log_var = [min(20.0, max(-20.0, v)) for v in log_var]
    return mean, log_var


def decoder_params(dec, z):
    return mlp_forward(dec, z)


# -- scalar distributions -------------------------------------------------------


def log_lik(kind, params, x, scale=1.0):
    if kind == "Normal":
        var = scale * scale
        return sum(-0.5 * (LOG_2PI + math.log(var) + (xi - p) ** 2 / var)
                   for xi, p in zip(x, params))
    if kind == "Laplace":
        return sum(-(abs(xi - p) / scale + math.log(2 * scale))
                   for xi, p in zip(x, params))
    if kind == "Bernoulli":
        total = 0.0
        for xi, logit in zip(x, params):
            p = 1.0 / (1.0 + math.exp(-logit))
            total += xi * math.log(p) + (1 - xi) * math.log(1 - p)
        return total
    if kind == "Categorical":
        norm = math.log(sum(math.exp(l) for l in params))
        return sum(xi * (l - norm) for xi, l in zip(x, params))
    # Default: negative sum of squared errors
    return -sum((xi - p) ** 2 for xi, p in zip(x, params))


def decode_log_lik(dec, z, x):
    return log_lik(dec.distribution, decoder_params(dec, z), x, dec.scale)


def gauss_log_pdf(z, mean, log_var):
    return sum(-0.5 * (LOG_2PI + lv + (zi - m) ** 2 / math.exp(lv))
               for zi, m, lv in zip(z, mean, log_var))


def std_normal_log_pdf(z):
    return gauss_log_pdf(z, [0.0] * len(z), [0.0] * len(z))


def kl_gauss(mq, lq, mp, lp):
    return sum(0.5 * (math.exp(a - b) + (x - y) ** 2 / math.exp(b) - 1 + b - a)
               for x, a, y, b in zip(mq, lq, mp, lp))


def kl_std(mean, log_var):
    return kl_gauss(mean, log_var, [0.0] * len(mean), [0.0] * len(mean))


def reparam(mean, log_var, eps):
    return [m + math.exp(0.5 * lv) * e for m, lv, e in zip(mean, log_var, eps)]


def poe_moments(moments, prior=True, alphas=None):
    """moments: list of (mean, log_var); returns pooled (mean, log_var)."""
    dims = len(moments[0][0])
    comps = list(moments)
    weights = list(alphas) if alphas is not None else [[1.0] * dims for _ in comps]
    if prior:
        comps = comps + [([0.0] * dims, [0.0] * dims)]
        weights = weights + [[1.0] * dims]
    mean, log_var = [], []
    for d in range(dims):
        prec = sum(w[d] * math.exp(-lv[d]) for (m, lv), w in zip(comps, weights))
        num = sum(w[d] * m[d] * math.exp(-lv[d]) for (m, lv), w in zip(comps, weights))
        mean.append(num / prec)
        log_var.append(-math.log(prec))
    return mean, log_var


def logsumexp(vals):
    m = max(vals)
    return m + math.log(sum(math.exp(v - m) for v in vals))


class DrawQueue:
    """Pops recorded eps arrays (as lists of per-sample rows) in order."""

    def __init__(self, draws):
        self._draws = [np.asarray(d) for d in draws]
        self._i = 0

    def next(self):
        d = self._draws[self._i]
        self._i += 1
        return d.tolist()

    def done(self):
        return self._i == len(self._draws)


def _rows(views):
    return [[v.data[i].tolist() for v in views] for i in range(views[0].shape[0])]


# -- per-model oracles -----------------------------------------------------------
# each returns the total minimization objective recomputed from scratch


def oracle_ae(state, views, draws):
    samples = _rows(views)
    m_total = state.n_views
    total = 0.0
    for xs in samples:
        zs = [mlp_forward(enc, xs[n]) for n, enc in enumerate(state.encoders)]
        acc = 0.0
        for m in range(m_total):
            for n in range(m_total):
                recon = decoder_params(state.decoders[m], zs[n])
                acc += sum((a - b) ** 2 for a, b in zip(xs[m], recon))
        total += acc / (m_total * m_total)
    return total / len(samples)


def oracle_jmvae(state, views, draws):
    q = DrawQueue(draws)
    samples = _rows(views)
    eps = q.next()
    total = 0.0
    for i, xs in enumerate(samples):
        mean, log_var = venc_forward(state.joint_encoder, xs[0] + xs[1])
        z = reparam(mean, log_var, eps[i])
        loss = -decode_log_lik(state.decoders[0], z, xs[0])
        loss -= decode_log_lik(state.decoders[1], z, xs[1])
        loss += state.cfg.beta * kl_std(mean, log_var)
        if state.cfg.alpha != 0.0:
            for m in range(2):
                um, ulv = venc_forward(state.encoders[m], xs[m])
                loss += state.cfg.alpha * kl_gauss(mean, log_var, um, ulv)
        total += loss
    return total / len(samples)


def oracle_dccae(state, views, draws):
    lam = state.cfg.lam[0] if state.cfg.lam else 1.0
    n = views[0].shape[0]
    h = [[mlp_forward(enc, views[m].data[i].tolist()) for i in range(n)]
         for m, enc in enumerate(state.encoders)]
    h1 = np.asarray(h[0])
    h2 = np.asarray(h[1])
    # independent correlation: whitened cross-covariance SVD via numpy
    ridge = 1e-3
    c1 = h1 - h1.mean(axis=0)
    c2 = h2 - h2.mean(axis=0)
    s11 = c1.T @ c1 / (n - 1) + ridge * np.eye(h1.shape[1])
    s22 = c2.T @ c2 / (n - 1) + ridge * np.eye(h2.shape[1])
    s12 = c1.T @ c2 / (n - 1)

    def inv_sqrt(s):
        lam_, v = np.linalg.eigh(s)
        return v @ np.diag(lam_ ** -0.5) @ v.T

    corr = float(np.linalg.svd(inv_sqrt(s11) @ s12 @ inv_sqrt(s22),
                               compute_uv=False).sum())
    recon = 0.0
    for m in range(2):
        for i in range(n):
            x = views[m].data[i].tolist()
            rec = decoder_params(state.decoders[m], h[m][i])
            recon += sum((a - b) ** 2 for a, b in zip(x, rec))
    return -corr + lam * recon / n


def oracle_dvcca(state, views, draws):
    q = DrawQueue(draws)
    samples = _rows(views)
    eps_z = q.next()
    eps_h = [q.next(), q.next()] if state.cfg.private else None
    total = 0.0
    for i, xs in enumerate(samples):
        mean, log_var = venc_forward(state.encoders[0], xs[0])
        z = reparam(mean, log_var, eps_z[i])
        loss = state.cfg.beta * kl_std(mean, log_var)
        if not state.cfg.private:
            for m in range(2):
                loss -= decode_log_lik(state.decoders[m], z, xs[m])
        else:
            for m in range(2):
                hm_mean, hm_lv = venc_forward(state.private_encoders[m], xs[m])
                h = reparam(hm_mean, hm_lv, eps_h[m][i])
                loss -= decode_log_lik(state.decoders[m], z + h, xs[m])
                loss += state.cfg.beta * kl_std(hm_mean, hm_lv)
        total += loss
    return total / len(samples)


def _sparse_kl_per_dim(log_alpha):
    k1, k2, k3 = 0.63576, 1.87320, 1.48695
    sig = 1.0 / (1.0 + math.exp(-(k2 + k3 * log_alpha)))
    neg = k1 * sig - 0.5 * math.log1p(math.exp(-log_alpha)) - k1
    return -neg


def oracle_mcvae(state, views, draws):
    q = DrawQueue(draws)
    samples = _rows(views)
    m_total = state.n_views
    eps_all = [q.next() for _ in range(m_total)]
    total = 0.0
    for i, xs in enumerate(samples):
        loss = 0.0
        for m in range(m_total):
            if state.cfg.sparse:
                mu = mlp_forward(state.encoders[m], xs[m])
                log_alpha = state.log_alphas[m].data.tolist()
                z = [u + u * math.sqrt(math.exp(la)) * e
                     for u, la, e in zip(mu, log_alpha, eps_all[m][i])]
                kl = sum(_sparse_kl_per_dim(la) for la in log_alpha)
            else:
                mean, log_var = venc_forward(state.encoders[m], xs[m])
                z = reparam(mean, log_var, eps_all[m][i])
                kl = kl_std(mean, log_var)
            for n in range(m_total):
                loss -= decode_log_lik(state.decoders[n], z, xs[n])
            loss += state.cfg.beta * kl
        total += loss
    return total / len(samples)


def oracle_mvae(state, views, draws):
    q = DrawQueue(draws)
    samples = _rows(views)
    eps = q.next()
    total = 0.0
    for i, xs in enumerate(samples):
        moments = [venc_forward(enc, xs[m]) for m, enc in enumerate(state.encoders)]
        mean, log_var = poe_moments(moments, prior=True)
        z = reparam(mean, log_var, eps[i])
        loss = state.cfg.beta * kl_std(mean, log_var)
        for m in range(state.n_views):
            loss -= decode_log_lik(state.decoders[m], z, xs[m])
        total += loss
    return total / len(samples)


def oracle_me_mvae(state, views, draws):
    q = DrawQueue(draws)
    samples = _rows(views)
    m_total = state.n_views
    eps_joint = q.next()
    eps_uni = [q.next() for _ in range(m_total)]
    total = 0.0
    for i, xs in enumerate(samples):
        moments = [venc_forward(enc, xs[m]) for m, enc in enumerate(state.encoders)]
        mean, log_var = poe_moments(moments, prior=True)
        z = reparam(mean, log_var, eps_joint[i])
        loss = state.cfg.beta * kl_std(mean, log_var)
        for m in range(m_total):
            loss -= decode_log_lik(state.decoders[m], z, xs[m])
        for m in range(m_total):
            um, ulv = poe_moments([moments[m]], prior=True)
            z_m = reparam(um, ulv, eps_uni[m][i])
            loss -= decode_log_lik(state.decoders[m], z_m, xs[m])
            loss += state.cfg.beta * kl_std(um, ulv)
        total += loss
    return total / len(samples)


def _moe_log_pdf(z, moments):
    comps = [gauss_log_pdf(z, m, lv) for m, lv in moments]
    return logsumexp(comps) - math.log(len(moments))


def oracle_mmvae(state, views, draws):
    q = DrawQueue(draws)
    samples = _rows(views)
    m_total = state.n_views
    k_total = max(1, state.cfg.K)
    eps = [[q.next() for _ in range(k_total)] for _ in range(m_total)]
    total = 0.0
    for i, xs in enumerate(samples):
        moments = [venc_forward(enc, xs[m]) for m, enc in enumerate(state.encoders)]
        loss = 0.0
        for m in range(m_total):
            log_ws = []
            for k in range(k_total):
                z = reparam(moments[m][0], moments[m][1], eps[m][k][i])
                lw = std_normal_log_pdf(z)
                for n in range(m_total):
                    lw += decode_log_lik(state.decoders[n], z, xs[n])
                lw -= _moe_log_pdf(z, moments)
                log_ws.append(lw)
            loss -= (logsumexp(log_ws) - math.log(k_total)) / m_total
        total += loss
    return total / len(samples)


def oracle_mvtcae(state, views, draws):
    q = DrawQueue(draws)
    samples = _rows(views)
    m_total = state.n_views
    eps = q.next()
    alpha, beta = state.cfg.alpha, state.cfg.beta
    total = 0.0
    for i, xs in enumerate(samples):
        moments = [venc_forward(enc, xs[m]) for m, enc in enumerate(state.encoders)]
        mean, log_var = poe_moments(moments, prior=False)
        z = reparam(mean, log_var, eps[i])
        loss = 0.0
        for m in range(m_total):
            loss -= (m_total - alpha) / m_total * decode_log_lik(
                state.decoders[m], z, xs[m])
        if alpha < 1.0:
            loss += beta * (1 - alpha) * kl_std(mean, log_var)
        if alpha > 0.0:
            for m in range(m_total):
                loss += beta * alpha / m_total * kl_gauss(
                    mean, log_var, moments[m][0], moments[m][1])
        total += loss
    return total / len(samples)


def _subsets(m_total):
    out = []
    for size in range(1, m_total + 1):
        from itertools import combinations

        out.extend(combinations(range(m_total), size))
    return out


def oracle_mopoe(state, views, draws):
    q = DrawQueue(draws)
    samples = _rows(views)
    m_total = state.n_views
    subsets = _subsets(m_total)
    eps = [q.next() for _ in subsets]
    n_sub = len(subsets)
    total = 0.0
    for i, xs in enumerate(samples):
        moments = [venc_forward(enc, xs[m]) for m, enc in enumerate(state.encoders)]
        loss = 0.0
        for k, sub in enumerate(subsets):
            mean, log_var = poe_moments([moments[j] for j in sub], prior=False)
            z = reparam(mean, log_var, eps[k][i])
            for m in range(m_total):
                loss -= decode_log_lik(state.decoders[m], z, xs[m]) / n_sub
            loss += state.cfg.beta * kl_std(mean, log_var) / n_sub
        total += loss
    return total / len(samples)


def oracle_weighted_mvae(state, views, draws):
    q = DrawQueue(draws)
    samples = _rows(views)
    m_total = state.n_views
    eps = q.next()
    logits = state.alpha_logits.data
    z_dim = logits.shape[1]
    alphas = []
    for m in range(m_total):
        col = []
        for d in range(z_dim):
            exps = [math.exp(min(30.0, max(-30.0, logits[j][d]))) for j in range(m_total)]
            col.append(exps[m] / sum(exps))
        alphas.append(col)
    total = 0.0
    for i, xs in enumerate(samples):
        moments = [venc_forward(enc, xs[m]) for m, enc in enumerate(state.encoders)]
        mean, log_var = poe_moments(moments, prior=True, alphas=alphas)
        z = reparam(mean, log_var, eps[i])
        loss = state.cfg.beta * kl_std(mean, log_var)
        for m in range(m_total):
            loss -= decode_log_lik(state.decoders[m], z, xs[m])
        total += loss
    return total / len(samples)


def oracle_mmjsd(state, views, draws):
    q = DrawQueue(draws)
    samples = _rows(views)
    m_total = state.n_views
    pi = state.cfg.pi if state.cfg.pi else [1.0 / (m_total + 1)] * (m_total + 1)
    eps = [q.next() for _ in range(m_total)]
    total = 0.0
    for i, xs in enumerate(samples):
        moments = [venc_forward(enc, xs[m]) for m, enc in enumerate(state.encoders)]
        z_dim = len(moments[0][0])
        prior = ([0.0] * z_dim, [0.0] * z_dim)
        comps = moments + [prior]
        f_mean, f_lv = [], []
        for d in range(z_dim):
            prec = sum(w * math.exp(-lv[d]) for w, (m, lv) in zip(pi, comps))
            num = sum(w * m[d] * math.exp(-lv[d]) for w, (m, lv) in zip(pi, comps))
            f_mean.append(num / prec)
            f_lv.append(-math.log(prec))
        loss = 0.0
        for m in range(m_total):
            z = reparam(moments[m][0], moments[m][1], eps[m][i])
            for n in range(m_total):
                loss -= decode_log_lik(state.decoders[n], z, xs[n]) / m_total
        for m in range(m_total):
            loss += state.cfg.beta * pi[m] * kl_gauss(
                moments[m][0], moments[m][1], f_mean, f_lv)
        loss += state.cfg.beta * pi[m_total] * kl_gauss(
            prior[0], prior[1], f_mean, f_lv)
        total += loss
    return total / len(samples)


def oracle_mmvaeplus(state, views, draws):
    q = DrawQueue(draws)
    samples = _rows(views)
    m_total = state.n_views
    k_total = max(1, state.cfg.K)
    plan = []
    for m in range(m_total):
        per_k = []
        for _ in range(k_total):
            entry = {"z": q.next(), "h": q.next(),
                     "aux": {n: q.next() for n in range(m_total) if n != m}}
            per_k.append(entry)
        plan.append(per_k)
    total = 0.0
    for i, xs in enumerate(samples):
        shared = [venc_forward(enc, xs[m]) for m, enc in enumerate(state.encoders)]
        private = [venc_forward(enc, xs[m])
                   for m, enc in enumerate(state.private_encoders)]
        loss = 0.0
        for m in range(m_total):
            log_ws = []
            for k in range(k_total):
                entry = plan[m][k]
                z = reparam(shared[m][0], shared[m][1], entry["z"][i])
                h = reparam(private[m][0], private[m][1], entry["h"][i])
                lw = decode_log_lik(state.decoders[m], z + h, xs[m])
                lw += std_normal_log_pdf(z) + std_normal_log_pdf(h)
                lw -= _moe_log_pdf(z, shared)
                lw -= gauss_log_pdf(h, private[m][0], private[m][1])
                for n in range(m_total):
                    if n == m:
                        continue
                    scale = [math.exp(s) for s in state.aux_log_scales[n].data.tolist()]
                    h_tilde = [s * e for s, e in zip(scale, entry["aux"][n][i])]
                    lw += decode_log_lik(state.decoders[n], z + h_tilde, xs[n])
                log_ws.append(lw)
            loss -= (logsumexp(log_ws) - math.log(k_total)) / m_total
        total += loss
    return total / len(samples)


def oracle_dmvae(state, views, draws):
    q = DrawQueue(draws)
    samples = _rows(views)
    m_total = state.n_views
    lam = state.cfg.lam if state.cfg.lam else [1.0] * m_total
    if len(lam) == 1 and m_total > 1:
        lam = lam * m_total
    eps_joint = q.next()
    eps_h = [q.next() for _ in range(m_total)]
    eps_z = [q.next() for _ in range(m_total)]
    total = 0.0
    for i, xs in enumerate(samples):
        shared = [venc_forward(enc, xs[m]) for m, enc in enumerate(state.encoders)]
        private = [venc_forward(enc, xs[m])
                   for m, enc in enumerate(state.private_encoders)]
        j_mean, j_lv = poe_moments(shared, prior=True)
        z_joint = reparam(j_mean, j_lv, eps_joint[i])
        hs = [reparam(private[m][0], private[m][1], eps_h[m][i])
              for m in range(m_total)]
        z_uni = [reparam(shared[m][0], shared[m][1], eps_z[m][i])
                 for m in range(m_total)]
        loss = 0.0
        for m in range(m_total):
            loss -= lam[m] * decode_log_lik(state.decoders[m], z_joint + hs[m], xs[m])
            loss += state.cfg.beta * kl_std(private[m][0], private[m][1])
            loss += state.cfg.beta * kl_std(j_mean, j_lv)
            for n in range(m_total):
                loss -= lam[m] * decode_log_lik(
                    state.decoders[m], z_uni[n] + hs[m], xs[m])
                loss += state.cfg.beta * kl_std(private[m][0], private[m][1])
                loss += state.cfg.beta * kl_std(shared[n][0], shared[n][1])
        total += loss
    return total / len(samples)


def _disc_forward(disc, z):
    out = mlp_forward(disc, z)[0]
    if disc.critic:
        return out
    return 1.0 / (1.0 + math.exp(-out))


def oracle_maae(state, views, draws):
    """Returns (recon, discriminator, generator) scalars."""
    q = DrawQueue(draws)
    samples = _rows(views)
    m_total = state.n_views
    priors = [q.next() for _ in range(m_total)]
    n = len(samples)
    recon = oracle_ae(state, views, [])
    disc = 0.0
    gen = 0.0
    for m in range(m_total):
        d_prior = 0.0
        d_enc = 0.0
        g = 0.0
        for i, xs in enumerate(samples):
            z_enc = mlp_forward(state.encoders[m], xs[m])
            d_prior += math.log(_disc_forward(state.discriminator, priors[m][i]))
            de = _disc_forward(state.discriminator, z_enc)
            d_enc += math.log(1.0 - de)
            if state.cfg.non_saturating:
                g -= math.log(de)
            else:
                g += math.log(1.0 - de)
        disc -= (d_prior + d_enc) / n
        gen += g / n
    return recon, disc / m_total, gen / m_total


def oracle_mwae(state, views, draws):
    q = DrawQueue(draws)
    samples = _rows(views)
    m_total = state.n_views
    priors = [q.next() for _ in range(m_total)]
    n = len(samples)
    recon = oracle_ae(state, views, [])
    critic_obj = 0.0
    gen_obj = 0.0
    for m in range(m_total):
        c_prior = 0.0
        c_enc = 0.0
        for i, xs in enumerate(samples):
            z_enc = mlp_forward(state.encoders[m], xs[m])
            c_prior += _disc_forward(state.discriminator, priors[m][i])
            c_enc += _disc_forward(state.discriminator, z_enc)
        critic_obj += (c_prior - c_enc) / n
        gen_obj += c_enc / n
    return recon, -critic_obj / m_total, -gen_obj / m_total


# -- reference Adam -------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class LoopAdam:
    """Adam one parameter at a time, each with its own step count; a
    parameter without a gradient is skipped."""

    def __init__(self, learning_rate):
        self.learning_rate = learning_rate
        self.moments = {}

    def step(self, params):
        for name, p in params:
            if p.grad is None:
                continue
            m, v, t = self.moments.get(name, (np.zeros_like(p.data), np.zeros_like(p.data), 0))
            t += 1
            g = p.grad
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = m / (1.0 - ADAM_BETA1 ** t)
            v_hat = v / (1.0 - ADAM_BETA2 ** t)
            p.data -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            self.moments[name] = (m, v, t)


def clip_each(params, bound):
    """Clip each parameter into [-bound, bound] in place, one at a time."""
    for _, p in params:
        np.clip(p.data, -bound, bound, out=p.data)
