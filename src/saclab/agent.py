"""Soft actor-critic with multi-step trace-corrected critic targets.

Twin critics are regressed onto targets built by the general retrace
operator over sampled segments; bootstrap values come only from the target
critics (minimum of the two), never the online ones.  The actor minimizes
alpha * log pi - min Q via the reparameterization trick, on a delayed
schedule, followed by Polyak target smoothing.

The single-step baseline is TraceSpec(lam=0, n=0) rather than separate
code, so the baseline and the multi-step variants share every component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nets
from .env import EnvConfig, EpisodeRecord, Observation, TradingEnv, cumulative_log_return, run_episode
from .nets import LSTM, Dense, adam_step, squashed_gaussian, squashed_gaussian_grads, squashed_gaussian_log_density
from .replay import ReplayBuffer, Transition
from .traces import TraceSpec, retrace_target, soft_td_error, trace_coefficient_from_log

#: Windows per batched actor encoding while the actor is frozen.  One LSTM
#: pass over a whole split holds (T+1, B, H) state arrays and caches for
#: every window at once: on perfbench's minute_backtest (2,880-bar training
#: split, hidden 32) that raised peak RSS from 49.8 to 63.6 MB, while chunks
#: of 128 with copied-out encodings stay below per-step acting.
ENCODE_CHUNK = 128


@dataclass(frozen=True)
class AgentConfig:
    """Training hyperparameters; network sizes are surfaced here because no
    published values exist for them."""

    trace: TraceSpec
    lr_actor: float = 3e-4
    lr_critic: float = 3e-4
    tau: float = 0.005
    batch: int = 64
    grad_steps_per_env_step: int = 2
    policy_delay: int = 2
    episodes: int = 30
    validate_every: int = 5
    seed: int = 0
    lstm_hidden: int = 64
    head_hidden: int = 64
    buffer_capacity: int = 100_000
    warmup: int = 1_000

    def __post_init__(self) -> None:
        if self.lr_actor <= 0 or self.lr_critic <= 0:
            raise ValueError("learning rates must be > 0")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        for name in ("batch", "grad_steps_per_env_step", "policy_delay", "episodes",
                     "lstm_hidden", "head_hidden", "buffer_capacity", "warmup"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.validate_every < 1:
            raise ValueError("validate_every must be >= 1")


class ObsFeaturizer:
    """Maps raw observations to bounded network inputs.

    Window bid/ask columns become 100 * (log p - log mid_now), i.e. price
    history relative to the newest bar's midpoint; engineered feature
    columns pass through (they are standardized upstream).  Account scalars
    are expressed as fractions of initial wealth so their scale does not
    depend on the currency units of the dataset.
    """

    def __init__(self, env_config: EnvConfig):
        self.v0 = env_config.initial_balance
        self.h_max = env_config.h_max

    def features(self, observations) -> tuple:
        """-> (windows (M, l+1, F+2), scalars (M, 2)); scalars = [b_feat, h_feat]."""
        windows, mid_now = self.window_features(np.stack([o.window for o in observations]))
        balance = np.array([o.balance for o in observations], dtype=np.float64)
        holdings = np.array([o.holdings for o in observations], dtype=np.float64)
        return windows, self.scalar_features(balance, holdings, mid_now)

    def window_features(self, raw: np.ndarray) -> tuple:
        """Raw windows (M, l+1, F+2) -> (featurized windows, mid_now (M,))."""
        n_feat = raw.shape[2] - 2
        mid_now = 0.5 * (raw[:, -1, n_feat] + raw[:, -1, n_feat + 1])
        log_mid = np.log(mid_now)[:, None]
        windows = raw.copy()
        windows[:, :, n_feat] = 100.0 * (np.log(raw[:, :, n_feat]) - log_mid)
        windows[:, :, n_feat + 1] = 100.0 * (np.log(raw[:, :, n_feat + 1]) - log_mid)
        return windows, mid_now

    def scalar_features(self, balance, holdings, mid_now: np.ndarray) -> np.ndarray:
        """-> (M, 2) [b_feat, h_feat] from (M,) newest mids and (M,) or scalar
        balances and holdings."""
        scalars = np.empty((len(mid_now), 2))
        scalars[:, 0] = balance / self.v0 - 1.0
        scalars[:, 1] = holdings * mid_now / self.v0
        return scalars

    def action_feature(self, action) -> np.ndarray:
        return np.asarray(action, dtype=np.float64) / self.h_max


class _EncoderHeadNet:
    """LSTM encoder over the window; its last hidden state, concatenated with
    n_scalars account (and action) features, feeds two tanh layers and a
    linear output of width n_out.  `encode` and the head are separate so a
    window's encoding can be computed once and reused."""

    def __init__(self, name: str, in_dim: int, lstm_hidden: int, head_hidden: int,
                 n_scalars: int, n_out: int, rng: np.random.Generator, dtype):
        self.lstm = LSTM(f"{name}.lstm", in_dim, lstm_hidden, rng, dtype)
        self.h1 = Dense(f"{name}.h1", lstm_hidden + n_scalars, head_hidden, "tanh", rng, dtype)
        self.h2 = Dense(f"{name}.h2", head_hidden, head_hidden, "tanh", rng, dtype)
        self.out = Dense(f"{name}.out", head_hidden, n_out, "identity", rng, dtype)
        self.hidden = lstm_hidden
        self.dtype = dtype

    @property
    def blocks(self) -> list:
        return self.lstm.blocks + self.h1.blocks + self.h2.blocks + self.out.blocks

    def encode(self, windows: np.ndarray):
        hs, lstm_cache = self.lstm.forward(windows)
        return hs[:, -1, :], (lstm_cache, hs.shape)

    def _head(self, enc: np.ndarray, scalars: np.ndarray):
        x = np.concatenate([enc, np.asarray(scalars, dtype=self.dtype)], axis=1)
        a1, c1 = self.h1.forward(x)
        a2, c2 = self.h2.forward(a1)
        out, c3 = self.out.forward(a2)
        return out, (c1, c2, c3)

    def _head_backward(self, head_cache, dout: np.ndarray, accumulate: bool = True) -> np.ndarray:
        c1, c2, c3 = head_cache
        dx3, _, _ = self.out.backward(c3, dout, accumulate)
        dx2, _, _ = self.h2.backward(c2, dx3, accumulate)
        dx1, _, _ = self.h1.backward(c1, dx2, accumulate)
        return dx1

    def _encode_backward(self, enc_cache, denc: np.ndarray) -> None:
        lstm_cache, hs_shape = enc_cache
        dhs = np.zeros(hs_shape, dtype=self.dtype)
        dhs[:, -1, :] = denc
        self.lstm.backward(lstm_cache, dhs)


class ActorNet(_EncoderHeadNet):
    """Dense head on [encoding, b_feat, h_feat] -> (mean, log_std)."""

    def __init__(self, name: str, in_dim: int, lstm_hidden: int, head_hidden: int,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__(name, in_dim, lstm_hidden, head_hidden, 2, 2, rng, dtype)
        # small output init keeps the initial policy near mean 0, log_std 0
        self.out.W.values *= 0.1

    def head(self, enc: np.ndarray, scalars: np.ndarray):
        out, head_cache = self._head(enc, scalars)
        return out[:, 0], out[:, 1], head_cache

    def forward(self, windows: np.ndarray, scalars: np.ndarray):
        enc, enc_cache = self.encode(windows)
        mean, log_std, head_cache = self.head(enc, scalars)
        return mean, log_std, (enc_cache, head_cache)

    def backward(self, cache, dmean: np.ndarray, dlog_std: np.ndarray) -> None:
        enc_cache, head_cache = cache
        dout = np.stack([dmean, dlog_std], axis=1).astype(self.dtype)
        dx1 = self._head_backward(head_cache, dout)
        self._encode_backward(enc_cache, dx1[:, : self.hidden])


class CriticNet(_EncoderHeadNet):
    """Dense head on [encoding, b_feat, h_feat, a_feat] -> q."""

    def __init__(self, name: str, in_dim: int, lstm_hidden: int, head_hidden: int,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__(name, in_dim, lstm_hidden, head_hidden, 3, 1, rng, dtype)

    def head(self, enc: np.ndarray, scalars: np.ndarray):
        out, head_cache = self._head(enc, scalars)
        return out[:, 0], head_cache

    def forward(self, windows: np.ndarray, scalars: np.ndarray):
        enc, enc_cache = self.encode(windows)
        q, head_cache = self.head(enc, scalars)
        return q, (enc_cache, head_cache)

    def head_backward(self, head_cache, dq: np.ndarray, accumulate: bool = True):
        """Backward through the head only; returns (denc, dscalars)."""
        dx1 = self._head_backward(head_cache, np.asarray(dq, dtype=self.dtype)[:, None], accumulate)
        return dx1[:, : self.hidden], dx1[:, self.hidden:]

    def backward(self, cache, dq: np.ndarray) -> None:
        enc_cache, head_cache = cache
        denc, _ = self.head_backward(head_cache, dq)
        self._encode_backward(enc_cache, denc)


@dataclass
class MetricsRow:
    episode: int
    steps: int
    critic_loss: float | None
    actor_loss: float | None
    train_return_pct: float
    val_return_pct: float | None
    seed: int
    env_id: int
    trace_kind: str


METRICS_HEADER = "episode,steps,critic_loss,actor_loss,train_return_pct,val_return_pct,seed,env_id,trace_kind"


@dataclass
class TrainingMetrics:
    rows: list = field(default_factory=list)

    def final_validation_return(self) -> float:
        vals = [r.val_return_pct for r in self.rows if r.val_return_pct is not None]
        if not vals:
            raise ValueError("no validation records in metrics")
        return vals[-1]

    def to_csv(self, path: str | Path) -> None:
        def cell(x) -> str:
            return "" if x is None else repr(float(x))

        lines = [METRICS_HEADER]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        str(r.episode),
                        str(r.steps),
                        cell(r.critic_loss),
                        cell(r.actor_loss),
                        repr(float(r.train_return_pct)),
                        cell(r.val_return_pct),
                        str(r.seed),
                        str(r.env_id),
                        r.trace_kind,
                    ]
                )
            )
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class TraceSacAgent:
    """Twin-critic soft actor-critic with retrace-corrected multi-step targets."""

    def __init__(self, config: AgentConfig, env_config: EnvConfig, n_features: int,
                 dtype=np.float32):
        self.config = config
        self.env_config = env_config
        self.featurizer = ObsFeaturizer(env_config)
        seeds = np.random.SeedSequence(config.seed).spawn(4)
        self.rng_init = np.random.default_rng(seeds[0])
        self.rng_collect = np.random.default_rng(seeds[1])
        self.rng_update = np.random.default_rng(seeds[2])
        self.rng_sampler = np.random.default_rng(seeds[3])

        in_dim = n_features + 2
        h, hh = config.lstm_hidden, config.head_hidden
        self.actor = ActorNet("actor", in_dim, h, hh, self.rng_init, dtype)
        self.critic_1 = CriticNet("critic_1", in_dim, h, hh, self.rng_init, dtype)
        self.critic_2 = CriticNet("critic_2", in_dim, h, hh, self.rng_init, dtype)
        self.target_critic_1 = CriticNet("target_critic_1", in_dim, h, hh, self.rng_init, dtype)
        self.target_critic_2 = CriticNet("target_critic_2", in_dim, h, hh, self.rng_init, dtype)
        self._copy_blocks(self.critic_1, self.target_critic_1)
        self._copy_blocks(self.critic_2, self.target_critic_2)
        # one flat arena per optimizer group; each net's blocks are views of it
        self.actor_arena = nets.ParamArena("actor", self.actor.blocks)
        self.critic_arena = nets.ParamArena("critics", self.critic_1.blocks + self.critic_2.blocks)
        self.target_arena = nets.ParamArena(
            "target_critics", self.target_critic_1.blocks + self.target_critic_2.blocks
        )

        self.buffer = ReplayBuffer(config.buffer_capacity, config.warmup)
        self.update_count = 0

    @staticmethod
    def _copy_blocks(src: CriticNet, dst: CriticNet) -> None:
        for sb, db in zip(src.blocks, dst.blocks):
            db.values[...] = sb.values

    @property
    def blocks(self) -> list:
        return (
            self.actor.blocks
            + self.critic_1.blocks
            + self.critic_2.blocks
            + self.target_critic_1.blocks
            + self.target_critic_2.blocks
        )

    # -- acting -----------------------------------------------------------------

    def act(self, obs: Observation, stochastic: bool, rng: np.random.Generator | None = None):
        """-> (action, log_density).  Deterministic mode takes the noise-free path
        (action = h_max * tanh(mean)) and draws nothing from the rng."""
        windows, scalars = self.featurizer.features([obs])
        mean, log_std, _ = self.actor.forward(windows, scalars)
        return self._draw(mean, log_std, stochastic, rng)

    def _draw(self, mean, log_std, stochastic: bool, rng: np.random.Generator | None = None):
        if stochastic:
            rng = rng if rng is not None else self.rng_collect
            eps = rng.standard_normal()
        else:
            eps = 0.0
        action, log_density, _ = squashed_gaussian(
            float(mean[0]), float(log_std[0]), eps, self.env_config.h_max
        )
        return float(action), float(log_density)

    def frozen_policy(self, env: TradingEnv):
        """`act` for observations of `env`, valid only while the actor does not change.

        Returns policy(obs, stochastic) -> (action, log_density) for the
        observation at env's current bar.  The actor's encoding of a window
        depends on nothing else, so the split's windows are featurized and
        encoded in chunks of ENCODE_CHUNK bars, each when a rollout first
        reaches it, and only the chunk's last-step encodings are kept; a
        step runs the dense head and the squashed Gaussian alone.  A
        stochastic step draws one rng_collect normal, as `act` does.
        """
        start = env.split_range.start
        n_chunks = -(-len(env.windows) // ENCODE_CHUNK)
        encodings = [None] * n_chunks
        mids = [None] * n_chunks

        def policy(obs: Observation, stochastic: bool):
            c, j = divmod(env.state.t - start, ENCODE_CHUNK)
            if encodings[c] is None:
                lo = c * ENCODE_CHUNK
                windows, mids[c] = self.featurizer.window_features(env.windows[lo:lo + ENCODE_CHUNK])
                enc, _ = self.actor.encode(windows)
                encodings[c] = enc.copy()  # a view would keep the chunk's LSTM state alive
            scalars = self.featurizer.scalar_features(obs.balance, obs.holdings, mids[c][j:j + 1])
            mean, log_std, _ = self.actor.head(encodings[c][j:j + 1], scalars)
            return self._draw(mean, log_std, stochastic)

        return policy

    def rollout(self, env: TradingEnv) -> EpisodeRecord:
        """One deterministic episode of the current actor on `env`: the
        validation return during training and `harness.evaluate_checkpoint`."""
        policy = self.frozen_policy(env)
        return run_episode(env, lambda obs: policy(obs, stochastic=False)[0])

    # -- target construction ------------------------------------------------------

    def segment_targets(self, segments, rng: np.random.Generator) -> np.ndarray:
        """Retrace targets for a batch of segments, one per segment start.

        Uses only the target critics (minimum of the two) and the current
        actor; never reads the online critics, so the targets are constants
        with respect to the parameters being optimized.
        """
        h_max = self.env_config.h_max
        spec = self.config.trace
        lengths = np.array([len(seg) for seg in segments])
        # row b of the (B, K) grid holds segment b's steps; seg_id and pos
        # index its live cells in row-major order, matching the flat arrays
        live = np.arange(lengths.max()) < lengths[:, None]
        seg_id, pos = np.nonzero(live)
        # segment b's states s_0..s_k occupy k + 1 rows, one more than its steps
        stored_idx = np.arange(len(seg_id)) + seg_id
        next_idx = stored_idx + 1
        windows, scalars = self.featurizer.features(
            [obs for seg in segments for obs in seg.observations]
        )

        mean, log_std, _ = self.actor.forward(windows, scalars)
        mean = np.asarray(mean, dtype=np.float64)
        log_std = np.asarray(log_std, dtype=np.float64)
        eps = rng.standard_normal(len(windows))
        fresh_action, fresh_logp, _ = squashed_gaussian(mean, log_std, eps, h_max)
        stored_actions = np.concatenate([seg.actions for seg in segments])

        enc1, _ = self.target_critic_1.encode(windows)
        enc2, _ = self.target_critic_2.encode(windows)
        sf_stored = np.concatenate(
            [scalars[stored_idx], self.featurizer.action_feature(stored_actions)[:, None]], axis=1
        )
        sf_fresh = np.concatenate(
            [scalars[next_idx], self.featurizer.action_feature(fresh_action[next_idx])[:, None]],
            axis=1,
        )
        q_stored_1, _ = self.target_critic_1.head(enc1[stored_idx], sf_stored)
        q_stored_2, _ = self.target_critic_2.head(enc2[stored_idx], sf_stored)
        q_fresh_1, _ = self.target_critic_1.head(enc1[next_idx], sf_fresh)
        q_fresh_2, _ = self.target_critic_2.head(enc2[next_idx], sf_fresh)
        q_stored = np.minimum(q_stored_1, q_stored_2).astype(np.float64)
        q_fresh = np.minimum(q_fresh_1, q_fresh_2).astype(np.float64)

        not_done = 1.0 - np.concatenate([seg.dones for seg in segments]).astype(np.float64)
        delta = soft_td_error(
            np.concatenate([seg.rewards for seg in segments]),
            not_done * q_fresh,
            not_done * fresh_logp[next_idx],
            q_stored,
            spec.gamma,
            spec.alpha_ent,
        )
        # coefficients only enter products from step 1 on; step 0 is never scored
        later = pos >= 1
        log_mu = np.concatenate([seg.behavior_log_densities for seg in segments])
        log_pi = squashed_gaussian_log_density(
            stored_actions[later], mean[stored_idx[later]], log_std[stored_idx[later]], h_max
        )
        coeff_grid = np.ones(live.shape)
        coeff_grid[seg_id[later], pos[later]] = trace_coefficient_from_log(
            spec.kind, log_pi, log_mu[later], spec.lam
        )
        td_grid = np.zeros(live.shape)
        td_grid[live] = delta
        targets = retrace_target(q_stored[pos == 0], td_grid, coeff_grid, lengths, spec)
        bad = np.flatnonzero(~np.isfinite(targets))
        if bad.size:
            raise FloatingPointError(f"non-finite retrace target for segment {bad[0]}")
        return targets

    # -- updates --------------------------------------------------------------------

    def _critic_inputs(self, segments) -> tuple:
        start_obs = [seg.transitions[0].obs for seg in segments]
        actions0 = np.array([seg.transitions[0].action for seg in segments], dtype=np.float64)
        windows, scalars = self.featurizer.features(start_obs)
        sf = np.concatenate([scalars, self.featurizer.action_feature(actions0)[:, None]], axis=1)
        return windows, sf

    def critic_loss_value(self, segments, targets: np.ndarray) -> float:
        """Pure evaluation of the twin-critic regression loss at frozen targets."""
        windows, sf = self._critic_inputs(segments)
        loss = 0.0
        for critic in (self.critic_1, self.critic_2):
            q, _ = critic.forward(windows, sf)
            diff = np.asarray(q, dtype=np.float64) - targets
            loss += float(np.sum(0.5 * diff * diff))
        return loss / (2.0 * len(segments))

    def critic_loss_backward(self, segments, targets: np.ndarray) -> float:
        """Same loss, accumulating parameter gradients into both critics."""
        batch = len(segments)
        windows, sf = self._critic_inputs(segments)
        loss = 0.0
        for critic in (self.critic_1, self.critic_2):
            q, cache = critic.forward(windows, sf)
            diff = np.asarray(q, dtype=np.float64) - targets
            loss += float(np.sum(0.5 * diff * diff))
            critic.backward(cache, (diff / (2.0 * batch)).astype(critic.dtype))
        return loss / (2.0 * batch)

    def critic_update(self, segments) -> float:
        """One regression step of both critics onto retrace targets."""
        targets = self.segment_targets(segments, self.rng_update)
        loss = self.critic_loss_backward(segments, targets)
        adam_step(self.critic_arena, self.config.lr_critic)
        self.update_count += 1
        return loss

    def _actor_loss(self, segments, eps: np.ndarray, with_grad: bool) -> float:
        h_max = self.env_config.h_max
        alpha = self.config.trace.alpha_ent
        start_obs = [seg.transitions[0].obs for seg in segments]
        batch = len(start_obs)
        windows, scalars = self.featurizer.features(start_obs)

        mean, log_std, actor_cache = self.actor.forward(windows, scalars)
        action, logp, sg_cache = squashed_gaussian(
            np.asarray(mean, dtype=np.float64), np.asarray(log_std, dtype=np.float64), eps, h_max
        )
        sf = np.concatenate([scalars, self.featurizer.action_feature(action)[:, None]], axis=1)

        q1, (_, head_cache_1) = self.critic_1.forward(windows, sf)
        q2, (_, head_cache_2) = self.critic_2.forward(windows, sf)
        q1 = np.asarray(q1, dtype=np.float64)
        q2 = np.asarray(q2, dtype=np.float64)
        loss = float(np.mean(alpha * logp - np.minimum(q1, q2)))
        if not with_grad:
            return loss

        # d loss / d action via the head of whichever critic realizes the min;
        # critic parameters receive no gradient here (accumulate=False)
        sel1 = (q1 <= q2).astype(np.float64)
        _, ds1 = self.critic_1.head_backward(head_cache_1, -sel1 / batch, accumulate=False)
        _, ds2 = self.critic_2.head_backward(head_cache_2, -(1.0 - sel1) / batch, accumulate=False)
        dl_da = (
            np.asarray(ds1[:, 2], dtype=np.float64) + np.asarray(ds2[:, 2], dtype=np.float64)
        ) / h_max

        da_dmean, da_dlog_std, dlp_dmean, dlp_dlog_std = squashed_gaussian_grads(sg_cache, h_max)
        dmean = alpha * dlp_dmean / batch + dl_da * da_dmean
        dlog_std = alpha * dlp_dlog_std / batch + dl_da * da_dlog_std
        self.actor.backward(actor_cache, dmean, dlog_std)
        return loss

    def actor_loss_value(self, segments, eps: np.ndarray) -> float:
        """Pure evaluation of mean(alpha * log pi - min online Q) at fixed noise."""
        return self._actor_loss(segments, eps, with_grad=False)

    def actor_loss_backward(self, segments, eps: np.ndarray) -> float:
        return self._actor_loss(segments, eps, with_grad=True)

    def actor_update(self, segments) -> float:
        """One step on mean(alpha * log pi - min online Q) at segment starts."""
        eps = self.rng_update.standard_normal(len(segments))
        loss = self.actor_loss_backward(segments, eps)
        adam_step(self.actor_arena, self.config.lr_actor)
        return loss

    def target_update(self, tau: float | None = None) -> None:
        """Polyak smoothing: target <- tau * online + (1 - tau) * target."""
        tau = self.config.tau if tau is None else tau
        target = self.target_arena.values
        target[...] = tau * self.critic_arena.values + (1.0 - tau) * target

    # -- training loop ----------------------------------------------------------------

    def train(self, train_env: TradingEnv, val_env: TradingEnv, env_id: int = 0) -> TrainingMetrics:
        cfg = self.config
        metrics = TrainingMetrics()
        warmup = self.frozen_policy(train_env)
        for episode in range(1, cfg.episodes + 1):
            obs = train_env.reset()
            done = False
            rewards = []
            critic_losses = []
            actor_losses = []
            steps = 0
            while not done:
                # no update runs before the buffer is ready, so the actor is frozen until then
                if self.buffer.ready:
                    warmup = None
                    action, logp = self.act(obs, stochastic=True)
                else:
                    action, logp = warmup(obs, stochastic=True)
                result = train_env.step(action)
                self.buffer.push(
                    Transition(obs, action, result.reward, result.observation, logp, result.done)
                )
                rewards.append(result.reward)
                obs = result.observation
                done = result.done
                steps += 1
                if self.buffer.ready:
                    for _ in range(cfg.grad_steps_per_env_step):
                        segments = self.buffer.sample_segments(
                            cfg.batch, cfg.trace.n, self.rng_sampler
                        )
                        critic_losses.append(self.critic_update(segments))
                        if self.update_count % cfg.policy_delay == 0:
                            actor_losses.append(self.actor_update(segments))
                            self.target_update()
            val_ret = None
            if episode % cfg.validate_every == 0:
                val_ret = self.rollout(val_env).return_pct
            metrics.rows.append(
                MetricsRow(
                    episode=episode,
                    steps=steps,
                    critic_loss=float(np.mean(critic_losses)) if critic_losses else None,
                    actor_loss=float(np.mean(actor_losses)) if actor_losses else None,
                    train_return_pct=cumulative_log_return(rewards),
                    val_return_pct=val_ret,
                    seed=cfg.seed,
                    env_id=env_id,
                    trace_kind=cfg.trace.kind.value,
                )
            )
        return metrics

    # -- persistence --------------------------------------------------------------------

    def save_checkpoint(self, path: str | Path) -> None:
        nets.save_checkpoint(
            path, self.blocks, extra={"update_count": np.int64(self.update_count)}
        )

    def restore_checkpoint(self, path: str | Path) -> None:
        saved, extra = nets.load_checkpoint(path)
        nets.load_into(self.blocks, saved)
        self.update_count = int(extra["update_count"])


def train_agent(train_env: TradingEnv, val_env: TradingEnv, config: AgentConfig,
                env_id: int = 0) -> tuple:
    """Construct an agent for the given environments and run the full loop."""
    agent = TraceSacAgent(config, train_env.config, train_env.data.n_features)
    metrics = agent.train(train_env, val_env, env_id=env_id)
    return agent, metrics

