//! Step-clocked serving benchmark for BitDecoding-RS.
//!
//! ```text
//! bd-perfbench --workload <long_context|chat_burst|shared_prompt>
//!              [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Untraced (`--trace 0`): sets up several times, then runs whole rounds
//! of the workload, each on a fresh session, for about `--seconds`
//! seconds of wall time, and prints the end-to-end metrics. Traced
//! (`--trace 1`): alternates untraced and traced rounds over the same
//! time and prints the per-layer metrics. Either way, after the timed
//! rounds, every output is checked and the `kvcache` and `core` layers
//! are replayed at the workload's shapes, with the kernel checked
//! against an f64 reference. Human-readable
//! detail goes to stderr; the last line of stdout is one JSON object.
//! See `README.md` for the workloads and what each metric should move.

mod drive;
mod replay;
mod stats;
mod workload;

use drive::{run_round, session, verify, Phases, Round};
use stats::{mean, median, percentile};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use workload::{Kind, ModelClock, Workload, ATTN, DEVICES, PAGE_TOKENS};

/// Set-up repetitions before each round; `setup_s` is the median of all
/// of a run's repetitions, so it samples the host over the whole run as
/// the round metrics do.
const SETUP_REPS: usize = 50;
/// Token gaps a run gathers at least, even past `--seconds`, so the TBT
/// median always rests on this many samples.
const MIN_GAPS: usize = 100;
const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: bd-perfbench --workload <long_context|chat_burst|shared_prompt> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds out of range: {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Decoder build + `ServeSession::new` (store, pools, worker threads),
/// `SETUP_REPS` times, each repetition's seconds appended to `out`.
/// Dropping the session (joining its workers) is left out of the timing.
fn set_up(w: &Workload, out: &mut Vec<f64>) {
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = session(w.pool_pages, false);
        out.push(t.elapsed().as_secs_f64());
        drop(s);
    }
}

/// The host process's peak resident set, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Structural checks besides the streams: only `shared_prompt` may (and
/// must) form cascade groups and adopt cached prefix pages at admission.
/// A swap-in re-adopting the request's own still-cached pages also counts
/// as a prefix-cache hit in the session's metrics (at most one per device
/// per resume), so on the unshared workloads a step may report at most
/// `DEVICES` hits per swap-in it made, and a step without one none.
fn workload_checks(w: &Workload, rounds: &[&Round]) -> Vec<String> {
    let mut errors = Vec::new();
    for (k, r) in rounds.iter().enumerate() {
        if w.kind == Kind::SharedPrompt {
            let hits = r.sum(|m| m.prefix_cache_hits);
            let groups = r.sum(|m| m.shared_attn_groups);
            if hits == 0 || groups == 0 {
                errors.push(format!(
                    "round {k}: {hits} prefix-cache hits and {groups} cascade groups on {}",
                    w.kind.name()
                ));
            }
            continue;
        }
        for m in &r.metrics {
            if m.shared_attn_groups > 0 || m.prefix_cache_hits > m.resumed * DEVICES {
                errors.push(format!(
                    "round {k} step {}: {} prefix-cache hits ({} swap-ins) and {} cascade groups on {}",
                    m.step,
                    m.prefix_cache_hits,
                    m.resumed,
                    m.shared_attn_groups,
                    w.kind.name()
                ));
            }
        }
    }
    errors
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = Workload::new(args.kind, args.seed);
    let mut setup = Vec::new();
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let clock = Arc::new(ModelClock::default());
    let start = Instant::now();
    loop {
        set_up(&w, &mut setup);
        plain.push(run_round(&w, session(w.pool_pages, false), None));
        if args.trace {
            traced.push(run_round(&w, session(w.pool_pages, true), Some(&clock)));
        }
        // Start another round only if it is expected to end in time, or
        // if the run still lacks `MIN_GAPS` token gaps.
        let elapsed = start.elapsed().as_secs_f64();
        let gaps: usize = plain.iter().map(|r| r.tbt_s.len()).sum();
        if elapsed * (1.0 + 1.0 / plain.len() as f64) > args.seconds && gaps >= MIN_GAPS {
            break;
        }
    }
    let rss = peak_rss_mib();
    let checks = Instant::now();
    let all: Vec<&Round> = plain.iter().chain(&traced).collect();
    let mut errors = verify(&w, &all);
    eprintln!("stream checks: {:.1} s", checks.elapsed().as_secs_f64());
    errors.extend(workload_checks(&w, &all));
    let attempted: usize = all.iter().map(|r| r.attempted).sum();
    let failed: usize = all.iter().map(|r| r.failed).sum();

    // The layer replay runs in every run, after the timed rounds, since
    // it holds the check of the kernel against the f64 reference.
    let layers = replay::replay(&w);
    eprintln!(
        "kernel vs f64 reference: {} elements, worst error {:.2} sigma (limit {})",
        layers.checked,
        layers.worst_sigma,
        replay::SIGMAS
    );
    errors.extend(layers.errors.iter().cloned());
    eprintln!(
        "checks and layer replay: {:.1} s",
        checks.elapsed().as_secs_f64()
    );
    let metrics = if args.trace {
        let miss_tokens = layers.prefill_tokens - layers.prefill_hit_tokens;
        eprintln!(
            "prefill: {:.0} tok/s over {miss_tokens} prompt tokens that missed the prefix cache, \
             {:.0} tok/s over {} that hit it",
            miss_tokens as f64 / (layers.prefill_s - layers.prefill_hit_s),
            layers.prefill_hit_tokens as f64 / layers.prefill_hit_s.max(f64::MIN_POSITIVE),
            layers.prefill_hit_tokens,
        );
        per_layer(&w, &plain, &traced, &clock, &layers)
    } else {
        end_to_end(&w, &plain, &setup, rss)
    };

    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    eprintln!(
        "{} seed {}: {} rounds{}, {attempted} requests, {failed} failed",
        w.kind.name(),
        args.seed,
        plain.len(),
        if args.trace {
            " untraced + as many traced"
        } else {
            ""
        },
    );
    for m in &metrics {
        eprintln!(
            "  {:<28} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        errors.is_empty() && finite,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

fn end_to_end(w: &Workload, rounds: &[Round], setup: &[f64], rss_mib: f64) -> Vec<Metric> {
    let ttft: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.ttft_s.iter().copied())
        .collect();
    let tbt: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.tbt_s.iter().copied())
        .collect();
    // Rates are medians over rounds, so one round slowed by the host
    // does not move them.
    let rate = |work: u64| -> f64 {
        let per_round: Vec<f64> = rounds.iter().map(|r| work as f64 / r.wall_s).collect();
        median(&per_round)
    };
    let page_bytes = PAGE_TOKENS as f64
        * (ATTN.heads_kv / DEVICES) as f64
        * bd_kvcache::QuantScheme::kc4().bytes_per_token(ATTN.head_dim);
    let peak_pages = rounds.iter().map(Round::peak_pages).max().unwrap_or(0);
    // Shown but not reported: on a busy 2-core host its spread over seeds
    // exceeds the widest bound a reported metric may have.
    eprintln!(
        "tbt p90: {:.2} ms over {} gaps",
        percentile(&tbt, 0.9) * 1e3,
        tbt.len()
    );
    vec![
        metric("setup_s", median(setup), "s", setup.len()),
        metric("ttft_p50_ms", median(&ttft) * 1e3, "ms", ttft.len()),
        metric("tbt_p50_ms", median(&tbt) * 1e3, "ms", tbt.len()),
        metric("out_tok_s", rate(w.gen_tokens()), "tok/s", rounds.len()),
        metric("e2e_kv_tok_s", rate(w.kv_tokens()), "tok/s", rounds.len()),
        metric(
            "peak_kv_mib",
            peak_pages as f64 * page_bytes / MIB,
            "MiB",
            rounds.len(),
        ),
        metric("peak_rss_mib", rss_mib, "MiB", 1),
    ]
}

fn per_layer(
    w: &Workload,
    plain: &[Round],
    traced: &[Round],
    clock: &ModelClock,
    layers: &replay::Layers,
) -> Vec<Metric> {
    let n = traced.len();
    let per_round = |f: &dyn Fn(&Round) -> f64| traced.iter().map(f).sum::<f64>() / n as f64;
    let mut phases = Phases::default();
    for r in traced {
        phases.absorb(Phases::of(&r.spans));
    }
    let per_step_ms = |s: f64| s * 1e3 / phases.steps.max(1) as f64;
    let steps: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.step_s.iter().copied())
        .collect();
    let waits: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.queue_wait_s.iter().copied())
        .collect();
    let batches: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.metrics.iter().map(|m| m.batch as f64))
        .collect();
    let prompt_calls = clock.prompt_calls.load(Ordering::Relaxed);
    let step_calls = clock.step_calls.load(Ordering::Relaxed);
    let lookups = layers.prefix_hits + layers.prefix_misses;
    let overhead: Vec<f64> = plain
        .iter()
        .zip(traced)
        .map(|(p, t)| t.wall_s - p.wall_s)
        .collect();
    vec![
        metric(
            "model.prompt_ms",
            clock.prompt_ns.load(Ordering::Relaxed) as f64 / prompt_calls.max(1) as f64 / 1e6,
            "ms",
            prompt_calls as usize,
        ),
        metric(
            "model.step_us",
            clock.step_ns.load(Ordering::Relaxed) as f64 / step_calls.max(1) as f64 / 1e3,
            "us",
            step_calls as usize,
        ),
        metric(
            "kvcache.prefill_tok_s",
            layers.prefill_tokens as f64 / layers.prefill_s,
            "tok/s",
            w.requests.len(),
        ),
        metric(
            "kvcache.gather_us_p50",
            median(&layers.gather_us),
            "us",
            layers.gather_us.len(),
        ),
        metric(
            "kvcache.append_us_p50",
            median(&layers.append_us),
            "us",
            layers.append_us.len(),
        ),
        metric(
            "kvcache.prefix_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                layers.prefix_hits as f64 / lookups as f64
            },
            "ratio",
            lookups as usize,
        ),
        metric(
            "kvcache.prefix_pages_reused",
            layers.prefix_pages_reused as f64,
            "count",
            1,
        ),
        metric("kvcache.peak_pages", layers.peak_pages as f64, "count", 1),
        metric(
            "core.attend_kv_tok_s",
            layers.attend_tokens as f64 / layers.attend_s,
            "tok/s",
            layers.attend_calls,
        ),
        metric(
            "core.attend_multi_kv_tok_s",
            layers.multi_tokens as f64 / layers.multi_s,
            "tok/s",
            layers.multi_calls,
        ),
        metric(
            "core.merge_us_p50",
            median(&layers.merge_us),
            "us",
            layers.merge_us.len(),
        ),
        metric(
            "core.dequant_ops",
            per_round(&|r| r.metrics.iter().map(|m| f64::from(m.dequant.total())).sum()),
            "count",
            n,
        ),
        metric("serve.step_ms_p50", median(&steps) * 1e3, "ms", steps.len()),
        metric(
            "serve.admission_ms",
            per_step_ms(phases.admission_s),
            "ms",
            phases.steps,
        ),
        metric(
            "serve.fan_out_ms",
            per_step_ms(phases.fan_out_s),
            "ms",
            phases.steps,
        ),
        metric(
            "serve.merge_ms",
            per_step_ms(phases.merge_s),
            "ms",
            phases.steps,
        ),
        metric(
            "serve.append_ms",
            per_step_ms(phases.append_s),
            "ms",
            phases.steps,
        ),
        metric(
            "serve.execute_ms",
            per_step_ms(phases.execute_s),
            "ms",
            phases.steps,
        ),
        metric(
            "serve.dispatch_wait_ms",
            per_step_ms(phases.dispatch_wait_s),
            "ms",
            phases.steps,
        ),
        metric(
            "serve.queue_wait_ms_p50",
            median(&waits) * 1e3,
            "ms",
            waits.len(),
        ),
        metric(
            "serve.preemptions",
            per_round(&|r| r.sum(|m| m.preempted) as f64),
            "count",
            n,
        ),
        metric(
            "serve.swap_mib",
            per_round(&|r| r.metrics.iter().map(|m| m.swap_bytes).sum::<f64>() / MIB),
            "MiB",
            n,
        ),
        metric("serve.batch_mean", mean(&batches), "count", batches.len()),
        metric(
            "serve.shared_attn_groups",
            per_round(&|r| r.sum(|m| m.shared_attn_groups) as f64),
            "count",
            n,
        ),
        metric("trace.overhead_s", mean(&overhead), "s", overhead.len()),
    ]
}
