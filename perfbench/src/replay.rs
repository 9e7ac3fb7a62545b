//! Layer replay: the workload's prompts and appends against a standalone
//! `PagedKvStore` (the `kvcache` layer), and the attention kernels at the
//! workload's context lengths (the `core` layer), each call timed on its
//! own. The replayed kernel output is checked against an f64 softmax
//! attention over the unquantized K/V.

use crate::drive::decoder;
use crate::workload::{Workload, ATTN, PAGE_TOKENS};
use bd_core::{query_transform, OnlineSoftmax, PrefixSharer, QueryHeads};
use bd_kvcache::{
    partition_prefill, KeyGranularity, PagedKvStore, QuantScheme, SeqId, TokenMatrix,
};
use std::time::Instant;

/// Standard deviations of modeled quantization noise the kernel output
/// may deviate from the f64 reference before the check fails.
pub const SIGMAS: f64 = 6.0;
/// Relative rounding error of an FP16 value (half an ulp).
const F16_REL: f64 = 1.0 / 2048.0;

/// Timings and counts of the replayed `kvcache` and `core` calls.
#[derive(Default)]
pub struct Layers {
    pub prefill_tokens: usize,
    pub prefill_s: f64,
    /// The part of the prefill spent on admissions that hit the prefix
    /// cache (which still quantize the whole prompt).
    pub prefill_hit_tokens: usize,
    pub prefill_hit_s: f64,
    pub gather_us: Vec<f64>,
    pub append_us: Vec<f64>,
    pub prefix_hits: u64,
    pub prefix_misses: u64,
    pub prefix_pages_reused: u64,
    pub peak_pages: usize,
    pub attend_tokens: usize,
    pub attend_s: f64,
    pub attend_calls: usize,
    pub multi_tokens: usize,
    pub multi_s: f64,
    pub multi_calls: usize,
    pub merge_us: Vec<f64>,
    /// Elements compared against the f64 reference, and the largest
    /// observed error as a multiple of its modeled noise.
    pub checked: usize,
    pub worst_sigma: f64,
    pub errors: Vec<String>,
}

/// Replays one round of `w`: every request's prompt is admitted through
/// `admit_prefill_cached` (so shared prefixes hit the radix cache as they
/// do in the session), attended at its prompt length, then extended by
/// its generation budget of appends; all requests stay resident, as at
/// the round's peak.
pub fn replay(w: &Workload) -> Layers {
    let dec = decoder();
    let codec = dec.codec();
    let scheme = dec.scheme();
    let nr = dec.cache_config().residual_block();
    let pages: usize = w.requests.iter().map(|r| r.pages()).sum();
    let mut store = PagedKvStore::new(dec.cache_config(), ATTN.heads_kv, pages + 1, PAGE_TOKENS);
    store.set_prefix_cache(true);
    let mut out = Layers::default();
    let mut seqs: Vec<(SeqId, Vec<Vec<Vec<f32>>>)> = Vec::new();
    let zeros: QueryHeads = vec![vec![0.0; ATTN.head_dim]; ATTN.heads_q];
    for (i, r) in w.requests.iter().enumerate() {
        let mut model = r.build();
        let (k, v) = model.prompt();
        let t = Instant::now();
        let admitted = store.admit_prefill_cached(&k, &v, r.prompt + r.gen, &codec);
        let elapsed = t.elapsed().as_secs_f64();
        out.prefill_s += elapsed;
        out.prefill_tokens += r.prompt;
        let seq = match admitted {
            Ok((seq, admit)) => {
                if admit.pages_reused > 0 {
                    out.prefill_hit_s += elapsed;
                    out.prefill_hit_tokens += r.prompt;
                }
                seq
            }
            Err(e) => {
                out.errors.push(format!("request {i}: prefill failed: {e}"));
                continue;
            }
        };
        let q = query_transform(&model.query(0), &ATTN);
        let (packed_len, _) = partition_prefill(r.prompt, nr);
        for head in 0..ATTN.heads_kv {
            let t = Instant::now();
            let blocks = store.packed_blocks(seq, head);
            out.gather_us.push(t.elapsed().as_secs_f64() * 1e6);
            let (res_k, res_v) = store.residual(seq, head);
            let t = Instant::now();
            let (partial, _) = dec.attend_head_partial(&q[head], &blocks, res_k, res_v);
            out.attend_s += t.elapsed().as_secs_f64();
            out.attend_tokens += r.prompt;
            out.attend_calls += 1;
            let got = partial.finish();
            check(
                &mut out, &q[head], &k[head], &v[head], packed_len, scheme, &got, i, head,
            );
        }
        drop((k, v));
        for step in 0..r.gen {
            let kv = model.advance(step, &zeros);
            let t = Instant::now();
            let res = store.append_step(seq, &kv.k, &kv.v, &codec);
            out.append_us.push(t.elapsed().as_secs_f64() * 1e6);
            if let Err(e) = res {
                out.errors.push(format!("request {i}: append failed: {e}"));
                break;
            }
        }
        out.peak_pages = out.peak_pages.max(store.total_pages() - store.free_pages());
        seqs.push((seq, query_transform(&model.query(r.gen), &ATTN)));
    }
    let stats = store.prefix_cache_stats();
    out.prefix_hits = stats.hits;
    out.prefix_misses = stats.misses;
    out.prefix_pages_reused = stats.pages_reused;
    replay_multi(&dec, &store, &seqs, &mut out);
    out
}

/// The cascade kernel over every resident sequence at its final context
/// (its shared prefix run is empty when nothing is shared), checked
/// bitwise against the per-sequence kernel; and the split-K merge of two
/// halves of each sequence's first head.
fn replay_multi(
    dec: &bd_core::BitDecoder,
    store: &PagedKvStore,
    seqs: &[(SeqId, Vec<Vec<Vec<f32>>>)],
    out: &mut Layers,
) {
    if seqs.is_empty() {
        return;
    }
    let ids: Vec<SeqId> = seqs.iter().map(|s| s.0).collect();
    let run = store.shared_block_run(&ids);
    for head in 0..ATTN.heads_kv {
        let gathers: Vec<_> = ids.iter().map(|&s| store.packed_blocks(s, head)).collect();
        let sharers: Vec<PrefixSharer<'_, _>> = seqs
            .iter()
            .zip(&gathers)
            .map(|((seq, q), g)| {
                let (res_k, res_v) = store.residual(*seq, head);
                PrefixSharer {
                    q_block: &q[head],
                    suffix: &g[run..],
                    res_k,
                    res_v,
                }
            })
            .collect();
        let t = Instant::now();
        let (partials, _) = dec.attend_head_partial_multi(&gathers[0][..run], &sharers);
        out.multi_s += t.elapsed().as_secs_f64();
        out.multi_calls += 1;
        for ((seq, q), (p, g)) in seqs.iter().zip(partials.into_iter().zip(&gathers)) {
            out.multi_tokens += store.seq_len(*seq).unwrap_or(0);
            let (res_k, res_v) = store.residual(*seq, head);
            let (solo, _) = dec.attend_head_partial(&q[head], g, res_k, res_v);
            if p.finish() != solo.finish() {
                out.errors.push(format!(
                    "head {head}: cascade partial differs from the per-sequence kernel"
                ));
            }
        }
    }
    for (seq, q) in seqs {
        let blocks = store.packed_blocks(*seq, 0);
        let (res_k, res_v) = store.residual(*seq, 0);
        let half = blocks.len() / 2;
        let empty = TokenMatrix::new(ATTN.head_dim);
        let (a, _) = dec.attend_head_partial(&q[0], &blocks[..half], &empty, &empty);
        let (b, _) = dec.attend_head_partial(&q[0], &blocks[half..], res_k, res_v);
        let t = Instant::now();
        let merged = OnlineSoftmax::merge(vec![a, b]).finish();
        out.merge_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(merged);
    }
}

/// Compares one kernel output block against the f64 reference and
/// records the outcome.
#[allow(clippy::too_many_arguments)]
fn check(
    out: &mut Layers,
    q: &[Vec<f32>],
    k: &TokenMatrix,
    v: &TokenMatrix,
    packed_len: usize,
    scheme: QuantScheme,
    got: &[Vec<f32>],
    request: usize,
    head: usize,
) {
    let (want, sigma) = reference(q, k, v, packed_len, scheme);
    let mut bad = 0;
    for (r, (g_row, (w_row, s_row))) in got.iter().zip(want.iter().zip(&sigma)).enumerate() {
        for (c, (&g, (&w, &s))) in g_row.iter().zip(w_row.iter().zip(s_row)).enumerate() {
            let err = (f64::from(g) - w).abs();
            // An absolute floor for f32 accumulation order.
            let tol = SIGMAS * s + 1e-6 * (1.0 + w.abs());
            out.checked += 1;
            out.worst_sigma = out.worst_sigma.max(err / s.max(1e-12));
            if err > tol || !g.is_finite() {
                if bad == 0 {
                    out.errors.push(format!(
                        "request {request} head {head} row {r} col {c}: kernel {g} vs f64 {w:.6} (tolerance {tol:.2e})"
                    ));
                }
                bad += 1;
            }
        }
    }
}

/// f64 softmax attention of each query row over the unquantized K/V,
/// and for each output element the standard deviation of the error the
/// cache's rounding should induce in it.
///
/// The noise model follows the scheme: a quantized element is off by at
/// most half its group's step, `(max - min) / (2^bits - 1)` — Keys over
/// `group` tokens per channel (KC) or `group` channels per token (KT),
/// Values over the channels of a token — modeled as uniform, plus FP16
/// rounding of every stored value, of the query and of the softmax
/// weights. A Key error moves logit `t` by `δ_t`, which moves output `j`
/// by `Σ_t w_t δ_t (v_tj - o_j)`; a Value error moves it by
/// `Σ_t w_t e_tj`. Errors are independent across elements, so variances
/// add.
fn reference(
    q: &[Vec<f32>],
    k: &TokenMatrix,
    v: &TokenMatrix,
    packed_len: usize,
    scheme: QuantScheme,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let n = k.tokens();
    let d = k.dim();
    let levels = f64::from((1u32 << scheme.bits_per_value()) - 1);
    let (k_gran, k_group) = match scheme.key_granularity() {
        Some(g) => (g, scheme.group().unwrap_or(n)),
        None => (KeyGranularity::TensorWise, d),
    };
    // Half-step of each stored element (0 outside the packed region,
    // where values are only FP16-rounded).
    let half_step = |m: &TokenMatrix, gran: KeyGranularity, group: usize| -> Vec<Vec<f64>> {
        let mut h = vec![vec![0.0; d]; n];
        let range = |vals: &mut dyn Iterator<Item = f64>| {
            let (lo, hi) = vals.fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(x), hi.max(x)));
            (hi - lo) / levels / 2.0
        };
        match gran {
            KeyGranularity::ChannelWise => {
                for t0 in (0..packed_len).step_by(group) {
                    let t1 = (t0 + group).min(packed_len);
                    for c in 0..d {
                        let s = range(&mut (t0..t1).map(|t| f64::from(m.row(t)[c])));
                        for row in &mut h[t0..t1] {
                            row[c] = s;
                        }
                    }
                }
            }
            KeyGranularity::TensorWise => {
                for (t, row) in h.iter_mut().enumerate().take(packed_len) {
                    for c0 in (0..d).step_by(group) {
                        let c1 = (c0 + group).min(d);
                        let s = range(&mut (c0..c1).map(|c| f64::from(m.row(t)[c])));
                        row[c0..c1].iter_mut().for_each(|x| *x = s);
                    }
                }
            }
        }
        for (t, row) in h.iter_mut().enumerate() {
            for (c, x) in row.iter_mut().enumerate() {
                *x += 2.0 * F16_REL * f64::from(m.row(t)[c]).abs();
            }
        }
        h
    };
    let hk = half_step(k, k_gran, k_group);
    let hv = half_step(
        v,
        KeyGranularity::TensorWise,
        QuantScheme::DEFAULT_CHANNEL_GROUP,
    );
    let scale = 1.0 / (d as f64).sqrt();
    let mut outs = Vec::with_capacity(q.len());
    let mut sigmas = Vec::with_capacity(q.len());
    for row in q {
        let qf: Vec<f64> = row.iter().map(|&x| f64::from(x)).collect();
        let logits: Vec<f64> = (0..n)
            .map(|t| {
                scale
                    * qf.iter()
                        .zip(k.row(t))
                        .map(|(a, &b)| a * f64::from(b))
                        .sum::<f64>()
            })
            .collect();
        let max = logits.iter().cloned().fold(f64::MIN, f64::max);
        let e: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
        let z: f64 = e.iter().sum();
        let w: Vec<f64> = e.iter().map(|x| x / z).collect();
        let mut o = vec![0.0; d];
        for (t, &wt) in w.iter().enumerate() {
            for (oj, &vj) in o.iter_mut().zip(v.row(t)) {
                *oj += wt * f64::from(vj);
            }
        }
        // Variance of each logit's error (Key rounding, query rounding)
        // plus the softmax weight's own FP16 rounding.
        let var_logit: Vec<f64> = (0..n)
            .map(|t| {
                let kv = k.row(t);
                let s: f64 = (0..d)
                    .map(|c| {
                        let kq = qf[c] * hk[t][c];
                        let qk = F16_REL * qf[c].abs() * f64::from(kv[c]);
                        kq * kq + qk * qk
                    })
                    .sum();
                (scale * scale * s + F16_REL * F16_REL) / 3.0
            })
            .collect();
        let sigma: Vec<f64> = (0..d)
            .map(|j| {
                (0..n)
                    .map(|t| {
                        let dv = f64::from(v.row(t)[j]) - o[j];
                        w[t] * w[t] * (hv[t][j] * hv[t][j] / 3.0 + var_logit[t] * dv * dv)
                    })
                    .sum::<f64>()
                    .sqrt()
            })
            .collect();
        outs.push(o);
        sigmas.push(sigma);
    }
    (outs, sigmas)
}
