//! Drives one round of a workload through `ServeSession` on its own step
//! clock and times every call into the session from outside.
//!
//! Arrivals are step numbers (`submit_at`), or a submit between `step()`
//! calls in the closed loop, so every round runs the same sequence of
//! steps and admissions; only their wall durations vary. An idle session
//! fast-forwards to the next arrival, so the generator never sleeps. A
//! request is *due* at the start of the `step()` call whose step number
//! reaches its arrival; its tokens are stamped at the end of the call
//! that emitted them.

use crate::workload::{
    ModelClock, Timed, Workload, ATTN, DEVICES, MAX_BATCH, PAGE_TOKENS, WORKERS,
};
use bd_core::BitDecoder;
use bd_gpu_sim::GpuArch;
use bd_kvcache::{Partitioning, QuantScheme};
use bd_obs::SpanRecord;
use bd_serve::{
    replay_contiguous, ClockDomain, FcfsPreempt, ObsConfig, RequestId, ServeConfig, ServeMetrics,
    ServeSession,
};
use std::sync::Arc;
use std::time::Instant;

pub fn decoder() -> BitDecoder {
    BitDecoder::builder(GpuArch::rtx4090())
        .attention(ATTN)
        .scheme(QuantScheme::kc4())
        .paged(true)
        .build()
}

pub fn session(pool_pages: usize, traced: bool) -> ServeSession {
    let config = ServeConfig::new(pool_pages, PAGE_TOKENS, WORKERS, MAX_BATCH)
        .with_devices(DEVICES, Partitioning::HeadModulo);
    let obs = if traced {
        ObsConfig::off()
            .with_spans(true)
            .with_span_capacity(1 << 20)
    } else {
        ObsConfig::off()
    };
    ServeSession::new(decoder(), config)
        .with_policy(FcfsPreempt::default())
        .with_obs(obs)
}

/// What one round produced, as seen from outside the session.
pub struct Round {
    /// First due request to last token, seconds.
    pub wall_s: f64,
    pub ttft_s: Vec<f64>,
    pub tbt_s: Vec<f64>,
    /// Due to the start of the step that emitted the first token.
    pub queue_wait_s: Vec<f64>,
    pub step_s: Vec<f64>,
    /// Token stream per request, in workload order (`None` if it failed).
    pub streams: Vec<Option<Vec<u32>>>,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<ServeMetrics>,
    /// Wall-clock spans of a traced round (empty otherwise).
    pub spans: Vec<SpanRecord>,
}

impl Round {
    pub fn kv_tokens(&self) -> u64 {
        self.metrics.iter().map(|m| m.kv_tokens as u64).sum()
    }

    pub fn sum(&self, f: impl Fn(&ServeMetrics) -> usize) -> usize {
        self.metrics.iter().map(f).sum()
    }

    pub fn peak_pages(&self) -> usize {
        self.metrics
            .iter()
            .map(|m| m.physical_pages)
            .max()
            .unwrap_or(0)
    }
}

/// Per-request timing as seen from outside the session.
#[derive(Clone, Default)]
struct Tracked {
    id: Option<RequestId>,
    due_step: usize,
    due: Option<Instant>,
    first_step_start: Option<Instant>,
    tokens: Vec<Instant>,
}

/// Runs one round on `session`. With `clock`, each request model is
/// wrapped so its own time is charged to the clock.
pub fn run_round(
    w: &Workload,
    mut session: ServeSession,
    clock: Option<&Arc<ModelClock>>,
) -> Round {
    let n = w.requests.len();
    let mut req: Vec<Tracked> = vec![Tracked::default(); n];
    let mut live: Vec<usize> = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut step_s = Vec::new();
    // Submits request `i`; the closed loop submits between steps, so the
    // request falls due in the next `step()` call.
    let mut submit = |session: &mut ServeSession, t: &mut Tracked, i: usize| -> bool {
        attempted += 1;
        let r = &w.requests[i];
        let mut model = r.build();
        if let Some(c) = clock {
            model = Box::new(Timed {
                inner: model,
                clock: Arc::clone(c),
            });
        }
        let res = match r.arrival {
            Some(step) => {
                t.due_step = step;
                session.submit_at(step, model)
            }
            None => {
                t.due_step = session.metrics().last().map_or(0, |m| m.step + 1);
                session.submit(model)
            }
        };
        t.id = res.ok();
        t.id.is_some()
    };
    let mut next = 0;
    loop {
        // The open loop submits every request before the first step; the
        // closed loop submits the next one once none is live.
        while next < n && (!w.closed_loop() || live.is_empty()) {
            if submit(&mut session, &mut req[next], next) {
                live.push(next);
            } else {
                failed += 1;
            }
            next += 1;
        }
        let t0 = Instant::now();
        let Some(m) = session.step() else { break };
        let t1 = Instant::now();
        step_s.push((t1 - t0).as_secs_f64());
        live.retain(|&i| {
            let t = &mut req[i];
            let Some(id) = t.id else { return false };
            if t.due.is_none() && t.due_step <= m.step {
                t.due = Some(t0);
            }
            let len = session.stream(id).map_or(0, <[u32]>::len);
            while t.tokens.len() < len {
                if t.tokens.is_empty() {
                    t.first_step_start = Some(t0);
                }
                t.tokens.push(t1);
            }
            if session.is_failed(id) {
                failed += 1;
                return false;
            }
            !session.is_finished(id)
        });
    }
    let mut ttft_s = Vec::new();
    let mut tbt_s = Vec::new();
    let mut queue_wait_s = Vec::new();
    let mut span: Option<(Instant, Instant)> = None;
    for t in &req {
        let (Some(d), Some(&first), Some(&last)) = (t.due, t.tokens.first(), t.tokens.last())
        else {
            continue;
        };
        span = Some(span.map_or((d, last), |(s, e)| (s.min(d), e.max(last))));
        ttft_s.push((first - d).as_secs_f64());
        if let Some(s) = t.first_step_start {
            queue_wait_s.push(s.saturating_duration_since(d).as_secs_f64());
        }
        tbt_s.extend(t.tokens.windows(2).map(|p| (p[1] - p[0]).as_secs_f64()));
    }
    let streams = req
        .iter()
        .map(|t| {
            t.id.filter(|&id| !session.is_failed(id))
                .and_then(|id| session.stream(id))
                .map(<[u32]>::to_vec)
        })
        .collect();
    let spans = session
        .tracer()
        .snapshot()
        .into_iter()
        .filter(|s| s.domain == ClockDomain::Wall)
        .collect();
    Round {
        wall_s: span.map_or(0.0, |(s, e)| (e - s).as_secs_f64()),
        ttft_s,
        tbt_s,
        queue_wait_s,
        step_s,
        streams,
        attempted,
        failed,
        metrics: session.metrics().to_vec(),
        spans,
    }
}

/// Checks every stream of a request that did not fail against a
/// contiguous single-sequence replay of a fresh copy of its model (rounds
/// are identical, so one replay per request covers them all), and the
/// attended KV tokens of every round without failures against the
/// workload's closed form. Returns the failures. The replays run on the
/// benchmark's `DEVICES * WORKERS` threads.
pub fn verify(w: &Workload, rounds: &[&Round]) -> Vec<String> {
    let mut errors = Vec::new();
    let dec = decoder();
    let threads = DEVICES * WORKERS;
    let mut expected: Vec<(usize, Vec<u32>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let dec = &dec;
                scope.spawn(move || {
                    (t..w.requests.len())
                        .step_by(threads)
                        .map(|i| (i, replay_contiguous(dec, w.requests[i].build().as_mut())))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("contiguous replay panicked"))
            .collect()
    });
    expected.sort_by_key(|e| e.0);
    for (i, expect) in expected {
        for (k, round) in rounds.iter().enumerate() {
            if round.streams[i].as_ref().is_some_and(|s| *s != expect) {
                errors.push(format!(
                    "round {k} request {i}: stream differs from contiguous replay"
                ));
            }
        }
    }
    for (k, round) in rounds.iter().enumerate() {
        if round.failed == 0 && round.kv_tokens() != w.kv_tokens() {
            errors.push(format!(
                "round {k}: session attended {} KV tokens, closed form says {}",
                round.kv_tokens(),
                w.kv_tokens()
            ));
        }
    }
    errors
}

/// Per-step phase times of a traced round, from the session's own spans.
#[derive(Default)]
pub struct Phases {
    pub steps: usize,
    pub admission_s: f64,
    pub fan_out_s: f64,
    pub merge_s: f64,
    pub append_s: f64,
    pub execute_s: f64,
    pub dispatch_wait_s: f64,
}

impl Phases {
    /// Aggregates spans into per-step self times. A session-lane phase's
    /// self time is its duration minus the part its device-lane children
    /// (`execute`, `shared_attn`) cover; only `fan_out` has such children.
    pub fn of(spans: &[SpanRecord]) -> Phases {
        let mut out = Phases::default();
        let mut steps: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.lane == 0 && s.name == "step")
            .collect();
        steps.sort_by(|a, b| a.begin_us.total_cmp(&b.begin_us));
        let within = |outer: &SpanRecord, s: &SpanRecord| {
            s.begin_us >= outer.begin_us
                && s.begin_us + s.dur_us <= outer.begin_us + outer.dur_us + 1e-3
        };
        for step in steps {
            let inner: Vec<&SpanRecord> = spans.iter().filter(|s| within(step, s)).collect();
            let phase = |name: &str| {
                inner
                    .iter()
                    .filter(|s| s.lane == 0 && s.name == name)
                    .map(|s| s.dur_us)
                    .sum::<f64>()
            };
            let device: Vec<&&SpanRecord> = inner.iter().filter(|s| s.lane > 0).collect();
            // Device `d` records on lane `1 + d`.
            let mut per_device = [0.0f64; DEVICES];
            for s in &device {
                per_device[(s.lane as usize - 1).min(DEVICES - 1)] += s.dur_us;
            }
            let execute: f64 = device.iter().map(|s| s.dur_us).sum();
            let fan_out = phase("fan_out");
            let mut iv: Vec<(f64, f64)> = device
                .iter()
                .map(|s| (s.begin_us, s.begin_us + s.dur_us))
                .collect();
            out.steps += 1;
            out.admission_s += phase("admission") * 1e-6;
            out.fan_out_s += (fan_out - union_len(&mut iv)).max(0.0) * 1e-6;
            out.merge_s += phase("merge") * 1e-6;
            out.append_s += phase("append") * 1e-6;
            out.execute_s += execute * 1e-6;
            out.dispatch_wait_s +=
                (fan_out - per_device.iter().cloned().fold(0.0, f64::max)).max(0.0) * 1e-6;
        }
        out
    }

    pub fn absorb(&mut self, o: Phases) {
        self.steps += o.steps;
        self.admission_s += o.admission_s;
        self.fan_out_s += o.fan_out_s;
        self.merge_s += o.merge_s;
        self.append_s += o.append_s;
        self.execute_s += o.execute_s;
        self.dispatch_wait_s += o.dispatch_wait_s;
    }
}

/// Total length covered by a set of intervals.
fn union_len(iv: &mut [(f64, f64)]) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(b, e) in iv.iter() {
        cur = match cur {
            Some((cb, ce)) if b <= ce => Some((cb, ce.max(e))),
            Some((cb, ce)) => {
                total += ce - cb;
                Some((b, e))
            }
            None => Some((b, e)),
        };
    }
    if let Some((cb, ce)) = cur {
        total += ce - cb;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        let mut iv = vec![(5.0, 7.0), (0.0, 2.0), (1.0, 3.0)];
        assert_eq!(union_len(&mut iv), 5.0);
    }
}
