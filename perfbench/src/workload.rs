//! The three workloads and the request-side models they submit.
//!
//! A workload is one *round*: a fixed list of requests with their prompt
//! lengths, generation budgets and arrival steps on the session's step
//! clock. Every round of a run is identical, so a run is a whole number of
//! identical rounds and only wall durations differ between rounds. The
//! seed picks every K/V/query value; prompt lengths and arrival steps are
//! fixed, so every seed offers the same work at the same steps and a
//! metric's spread over seeds is the host's, not the inputs'.

use bd_bench::traces::{bursty_trace, BurstProfile, RequestShape, SplitMix64};
use bd_core::{AttentionConfig, QueryHeads};
use bd_kvcache::TokenMatrix;
use bd_serve::{SequenceModel, StepKv, SynthSequence};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// LLaMA-3.1-8B attention: 32 query heads, 8 KV heads, head dim 128.
pub const ATTN: AttentionConfig = AttentionConfig {
    heads_q: 32,
    heads_kv: 8,
    head_dim: 128,
};

/// Tokens per KV page.
pub const PAGE_TOKENS: usize = 64;
/// Simulated devices the KV heads shard across.
pub const DEVICES: usize = 2;
/// Persistent decode workers per device; `DEVICES * WORKERS` is the
/// two-core budget of the reference host.
pub const WORKERS: usize = 1;
/// Maximum concurrently decoding sequences.
pub const MAX_BATCH: usize = 16;

/// `long_context`: one client, prompts of this many tokens.
const LC_PROMPT: usize = 8192;
/// `long_context`: requests per round, run one at a time.
const LC_REQUESTS: usize = 1;
/// `long_context`: tokens generated per request.
const LC_GEN: usize = 32;

/// `chat_burst`: requests per round.
const CB_REQUESTS: usize = 12;
/// `chat_burst`: prompt lengths are log-spaced over this range.
const CB_PROMPT_RANGE: (usize, usize) = (128, 2048);
/// `chat_burst`: tokens generated per request.
const CB_GEN: usize = 32;
/// `chat_burst`: the bursty arrivals are rescaled to span this many steps.
const CB_SPAN_STEPS: f64 = 48.0;
/// `chat_burst`: seed of the arrival pattern and of the order of prompt
/// lengths, fixed across run seeds.
const CB_TRACE_SEED: u64 = 0xB0257;
/// `chat_burst`: the page pool holds this share of the round's total
/// page demand, so bursts queue and preempt.
const CB_POOL_SHARE: f64 = 0.4;

/// `shared_prompt`: tenants per round.
const SP_TENANTS: usize = 4;
/// `shared_prompt`: the common system prompt, tokens.
const SP_PREFIX: usize = 4096;
/// `shared_prompt`: private suffix length of each tenant, in arrival order.
const SP_SUFFIXES: [usize; SP_TENANTS] = [192, 320, 448, 576];
/// `shared_prompt`: steps between consecutive tenant arrivals.
const SP_STAGGER: usize = 3;
/// `shared_prompt`: tokens generated per tenant.
const SP_GEN: usize = 32;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    LongContext,
    ChatBurst,
    SharedPrompt,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::LongContext, Kind::ChatBurst, Kind::SharedPrompt];

    pub fn name(self) -> &'static str {
        match self {
            Kind::LongContext => "long_context",
            Kind::ChatBurst => "chat_burst",
            Kind::SharedPrompt => "shared_prompt",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How a request's model is built.
#[derive(Clone, Copy, Debug)]
pub enum ModelSpec {
    Synth { seed: u64 },
    Shared { prefix_seed: u64, tenant_seed: u64 },
}

/// One request of a round.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    pub prompt: usize,
    pub gen: usize,
    /// Arrival step on the session clock; `None` submits the request in a
    /// closed loop once the previous one has finished.
    pub arrival: Option<usize>,
    pub model: ModelSpec,
}

impl Request {
    pub fn build(&self) -> Box<dyn SequenceModel> {
        match self.model {
            ModelSpec::Synth { seed } => {
                Box::new(SynthSequence::new(ATTN, seed, self.prompt, self.gen))
            }
            ModelSpec::Shared {
                prefix_seed,
                tenant_seed,
            } => Box::new(SharedPromptSeq::new(
                prefix_seed,
                tenant_seed,
                SP_PREFIX,
                self.prompt - SP_PREFIX,
                self.gen,
            )),
        }
    }

    /// KV tokens the request attends over its whole decode:
    /// `Σ_{s < gen} (prompt + s)`.
    pub fn kv_tokens(&self) -> u64 {
        let (p, g) = (self.prompt as u64, self.gen as u64);
        g * p + g * (g - 1) / 2
    }

    pub fn pages(&self) -> usize {
        (self.prompt + self.gen).div_ceil(PAGE_TOKENS)
    }
}

/// One round of a workload plus the session sizing it runs under.
#[derive(Clone, Debug)]
pub struct Workload {
    pub kind: Kind,
    pub requests: Vec<Request>,
    /// Page pool per device.
    pub pool_pages: usize,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let mut rng = SplitMix64::new(seed ^ 0xBD0D_5EED);
        let requests = match kind {
            Kind::LongContext => (0..LC_REQUESTS)
                .map(|_| Request {
                    prompt: LC_PROMPT,
                    gen: LC_GEN,
                    arrival: None,
                    model: ModelSpec::Synth {
                        seed: rng.next_u64(),
                    },
                })
                .collect(),
            Kind::ChatBurst => chat_burst(&mut rng),
            Kind::SharedPrompt => {
                let prefix_seed = rng.next_u64();
                SP_SUFFIXES
                    .iter()
                    .enumerate()
                    .map(|(i, s)| Request {
                        prompt: SP_PREFIX + s,
                        gen: SP_GEN,
                        arrival: Some(i * SP_STAGGER),
                        model: ModelSpec::Shared {
                            prefix_seed,
                            tenant_seed: rng.next_u64(),
                        },
                    })
                    .collect()
            }
        };
        let demand: usize = requests.iter().map(Request::pages).sum();
        let largest = requests.iter().map(Request::pages).max().unwrap_or(1);
        let pool_pages = match kind {
            Kind::ChatBurst => largest.max((demand as f64 * CB_POOL_SHARE) as usize),
            // Room for every request at once, so nothing but the traffic
            // itself shapes the run.
            _ => demand + 1,
        };
        Workload {
            kind,
            requests,
            pool_pages,
        }
    }

    pub fn closed_loop(&self) -> bool {
        self.requests.iter().all(|r| r.arrival.is_none())
    }

    pub fn kv_tokens(&self) -> u64 {
        self.requests.iter().map(Request::kv_tokens).sum()
    }

    pub fn gen_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.gen as u64).sum()
    }
}

/// `chat_burst`: the first `CB_REQUESTS` arrivals of a `bursty_trace`
/// drawn from the fixed `CB_TRACE_SEED`, rescaled onto `CB_SPAN_STEPS`.
/// Their prompt lengths are the `CB_REQUESTS` log-spaced quantiles of the
/// trace's log-uniform range, dealt out in an order also drawn from
/// `CB_TRACE_SEED`, so every run seed offers the same bursts of the same
/// sizes; a dozen requests are too few for seed-drawn lengths and
/// arrivals to give a TTFT median that holds from seed to seed.
fn chat_burst(rng: &mut SplitMix64) -> Vec<Request> {
    let (lo, hi) = CB_PROMPT_RANGE;
    let ratio = hi as f64 / lo as f64;
    let lengths: Vec<usize> = (0..CB_REQUESTS)
        .map(|i| (lo as f64 * ratio.powf((i as f64 + 0.5) / CB_REQUESTS as f64)).round() as usize)
        .collect();
    let lengths = shuffled(&lengths, &mut SplitMix64::new(CB_TRACE_SEED));
    let shape = RequestShape {
        prompt_range: CB_PROMPT_RANGE,
        gen_tokens: CB_GEN,
    };
    let mut duration = 64.0;
    let trace = loop {
        let t = bursty_trace(1.0, duration, shape, BurstProfile::default(), CB_TRACE_SEED);
        if t.len() >= CB_REQUESTS {
            break t;
        }
        duration *= 2.0;
    };
    let first = trace[0].arrival_s;
    let span = (trace[CB_REQUESTS - 1].arrival_s - first).max(f64::MIN_POSITIVE);
    lengths
        .iter()
        .zip(&trace)
        .map(|(&prompt, r)| Request {
            prompt,
            gen: CB_GEN,
            arrival: Some(((r.arrival_s - first) / span * CB_SPAN_STEPS).round() as usize),
            model: ModelSpec::Synth {
                seed: rng.next_u64(),
            },
        })
        .collect()
}

/// A seeded Fisher-Yates permutation of `items`.
fn shuffled<T: Copy>(items: &[T], rng: &mut SplitMix64) -> Vec<T> {
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.range(0, i));
    }
    out
}

/// Hash of `(seed, tag, i, j)` to an f32 in `[-2, 2)`.
fn hval(seed: u64, tag: u64, i: u64, j: u64) -> f32 {
    let mut m = SplitMix64::new(
        seed ^ tag.rotate_left(17) ^ i.wrapping_mul(0xA24B_AED4_963E_E407) ^ j.rotate_left(40),
    );
    ((m.next_u64() >> 40) % 4096) as f32 / 1024.0 - 2.0
}

const TAG_K: u64 = 1;
const TAG_V: u64 = 2;
const TAG_Q: u64 = 3;
const TAG_STEP_K: u64 = 4;
const TAG_STEP_V: u64 = 5;

/// A tenant whose prompt is a shared system prompt (values from
/// `prefix_seed`) followed by a private suffix (values from its own seed).
/// Tenants built from one `prefix_seed` agree bitwise on the first
/// `prefix` prompt tokens, so the radix prefix cache can adopt those pages
/// without an explicit fork. Queries and generated K/V come from the
/// tenant seed and chain through the previously emitted token.
#[derive(Clone, Debug)]
pub struct SharedPromptSeq {
    prefix_seed: u64,
    seed: u64,
    prefix: usize,
    suffix: usize,
    gen: usize,
    last_token: u32,
}

impl SharedPromptSeq {
    pub fn new(prefix_seed: u64, seed: u64, prefix: usize, suffix: usize, gen: usize) -> Self {
        SharedPromptSeq {
            prefix_seed,
            seed,
            prefix,
            suffix,
            gen,
            last_token: 0,
        }
    }

    fn prompt_value(&self, tag: u64, head: usize, t: usize, c: usize) -> f32 {
        let seed = if t < self.prefix {
            self.prefix_seed
        } else {
            self.seed
        };
        hval(seed, tag | (head as u64) << 8, t as u64, c as u64)
    }
}

impl SequenceModel for SharedPromptSeq {
    fn prompt(&mut self) -> (Vec<TokenMatrix>, Vec<TokenMatrix>) {
        let len = self.prefix + self.suffix;
        let d = ATTN.head_dim;
        let side = |tag| -> Vec<TokenMatrix> {
            (0..ATTN.heads_kv)
                .map(|h| TokenMatrix::from_fn(len, d, |t, c| self.prompt_value(tag, h, t, c)))
                .collect()
        };
        (side(TAG_K), side(TAG_V))
    }

    fn prompt_tokens(&self) -> usize {
        self.prefix + self.suffix
    }

    fn gen_tokens(&self) -> usize {
        self.gen
    }

    fn query(&mut self, step: usize) -> QueryHeads {
        (0..ATTN.heads_q)
            .map(|h| {
                (0..ATTN.head_dim)
                    .map(|c| hval(self.seed, TAG_Q | (h as u64) << 8, step as u64, c as u64))
                    .collect()
            })
            .collect()
    }

    fn advance(&mut self, step: usize, output: &QueryHeads) -> StepKv {
        let mut token = self.last_token.rotate_left(11);
        for row in output {
            for &x in row {
                token = token.rotate_left(5) ^ x.to_bits();
                token = token.wrapping_mul(0x0100_01B3);
            }
        }
        self.last_token = token;
        let kv_seed = self.seed ^ u64::from(token).wrapping_mul(0x2545_F491_4F6C_DD1D);
        let rows = |tag: u64| -> Vec<Vec<f32>> {
            (0..ATTN.heads_kv)
                .map(|h| {
                    (0..ATTN.head_dim)
                        .map(|c| hval(kv_seed, tag | (h as u64) << 8, step as u64, c as u64))
                        .collect()
                })
                .collect()
        };
        StepKv {
            token,
            k: rows(TAG_STEP_K),
            v: rows(TAG_STEP_V),
        }
    }

    fn reset(&mut self) {
        self.last_token = 0;
    }
}

/// Time spent inside request models, shared by every [`Timed`] model of a
/// traced round.
#[derive(Default)]
pub struct ModelClock {
    pub prompt_ns: AtomicU64,
    pub prompt_calls: AtomicU64,
    pub step_ns: AtomicU64,
    pub step_calls: AtomicU64,
}

/// Wraps a request's model and charges its `prompt()` and
/// `query()` + `advance()` time to a [`ModelClock`].
pub struct Timed {
    pub inner: Box<dyn SequenceModel>,
    pub clock: Arc<ModelClock>,
}

fn charge(ns: &AtomicU64, since: Instant) {
    ns.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

impl SequenceModel for Timed {
    fn prompt(&mut self) -> (Vec<TokenMatrix>, Vec<TokenMatrix>) {
        let t = Instant::now();
        let out = self.inner.prompt();
        charge(&self.clock.prompt_ns, t);
        self.clock.prompt_calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn prompt_tokens(&self) -> usize {
        self.inner.prompt_tokens()
    }

    fn gen_tokens(&self) -> usize {
        self.inner.gen_tokens()
    }

    fn query(&mut self, step: usize) -> QueryHeads {
        let t = Instant::now();
        let out = self.inner.query(step);
        charge(&self.clock.step_ns, t);
        out
    }

    fn advance(&mut self, step: usize, output: &QueryHeads) -> StepKv {
        let t = Instant::now();
        let out = self.inner.advance(step, output);
        charge(&self.clock.step_ns, t);
        self.clock.step_calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_prompt_tenants_agree_on_the_prefix_only() {
        let mut a = SharedPromptSeq::new(7, 1, 256, 64, 2);
        let mut b = SharedPromptSeq::new(7, 2, 256, 128, 2);
        let (ka, va) = a.prompt();
        let (kb, vb) = b.prompt();
        for h in 0..ATTN.heads_kv {
            for t in 0..256 {
                assert_eq!(ka[h].row(t), kb[h].row(t));
                assert_eq!(va[h].row(t), vb[h].row(t));
            }
            assert_ne!(ka[h].row(256), kb[h].row(256));
        }
    }

    #[test]
    fn shared_prompt_reset_restores_the_stream() {
        let mut m = SharedPromptSeq::new(3, 4, 128, 16, 3);
        let out: QueryHeads = vec![vec![0.25; ATTN.head_dim]; ATTN.heads_q];
        let first: Vec<StepKv> = (0..3).map(|s| m.advance(s, &out)).collect();
        m.reset();
        let again: Vec<StepKv> = (0..3).map(|s| m.advance(s, &out)).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn every_seed_offers_the_same_work() {
        for kind in Kind::ALL {
            let a = Workload::new(kind, 1);
            let b = Workload::new(kind, 2);
            let shape = |w: &Workload| -> Vec<_> {
                w.requests
                    .iter()
                    .map(|r| (r.prompt, r.gen, r.arrival))
                    .collect()
            };
            assert_eq!(shape(&a), shape(&b), "{}", kind.name());
            assert_eq!(a.pool_pages, b.pool_pages, "{}", kind.name());
        }
    }
}
