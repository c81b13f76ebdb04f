//! `train-edkm`: fine-tune and compress a bf16 LLaMA-shaped model on the
//! simulated GPU with 3-bit scalar DKM under full eDKM (M+U+S, 8 learners),
//! then export — the paper's workload, through
//! `CompressionPipeline::fine_tune_and_compress`.
//!
//! The untraced run repeats the whole call from the same starting weights.
//! The traced run replays the call's loop step by step through the same
//! public entry points, wrapped in spans, and must reproduce the
//! pipeline's losses bit for bit.

use crate::report::Outcome;
use crate::stats::{self, Fingerprint};
use crate::trace::{self, Tracer};
use edkm_autograd::{push_hooks, PackedTensor, SavedTensorHooks, Var};
use edkm_core::{
    uniquify, CompressSpec, CompressionPipeline, DkmLayer, EdkmConfig, EdkmHooks, EdkmPacked,
    HookStatsSnapshot, StoredEntry,
};
use edkm_data::{AlpacaSet, Grammar};
use edkm_eval::perplexity;
use edkm_nn::{clip_grad_norm, AdamW, LlamaConfig, LlamaModel, LmBatch};
use edkm_tensor::{runtime, DType, Device, Tensor};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Model shape: LLaMA-style, 2 decoder layers.
const CONFIG: LlamaConfig = LlamaConfig {
    vocab: 64,
    d_model: 64,
    n_heads: 4,
    n_layers: 2,
    d_ff: 128,
    max_seq: 16,
};
/// Sequences per batch.
const BATCH: usize = 4;
/// Predicted positions per sequence.
const SEQ: usize = 12;
/// Optimizer steps per `fine_tune_and_compress` call.
const STEPS: usize = 4;
/// Steps compared against the run without offloading.
const REFERENCE_STEPS: usize = 2;
/// Held-out windows for perplexity.
const EVAL_WINDOWS: usize = 128;
/// The fixed parts of the workload: the grammar, the starting ("pretrained")
/// weights and the held-out set. Only the fine-tuning batches come from the
/// seed, as a fine-tune of one released checkpoint on new data would.
const GRAMMAR_SEED: u64 = 0;
const MODEL_SEED: u64 = 7;
const EVAL_SEED: u64 = 0x6576;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn spec() -> CompressSpec {
    let mut spec = CompressSpec::with_bits(3);
    spec.epochs = 1;
    spec.edkm = EdkmConfig::full(8);
    spec.train.optim.lr = 3e-4;
    spec
}

/// The generated inputs of one seed.
struct Inputs {
    batches: Vec<LmBatch>,
    eval: Vec<Vec<usize>>,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let grammar = Grammar::default_with_seed(GRAMMAR_SEED);
        let train = AlpacaSet::generate(&grammar, BATCH * STEPS, SEQ, seed);
        let eval = AlpacaSet::generate(&grammar, EVAL_WINDOWS, SEQ, EVAL_SEED);
        Inputs {
            batches: train.batches(BATCH).into_iter().map(LmBatch::new).collect(),
            eval: eval.examples().to_vec(),
        }
    }

    fn fingerprint(&self) -> String {
        let mut f = Fingerprint::default();
        f.word(MODEL_SEED);
        for b in &self.batches {
            for s in &b.seqs {
                f.tokens(s);
            }
        }
        for w in &self.eval {
            f.tokens(w);
        }
        f.hex()
    }

    fn tokens_per_call(&self) -> usize {
        self.batches
            .iter()
            .map(|b| b.batch_size() * b.seq_len())
            .sum()
    }
}

/// Everything a set-up builds.
struct Setup {
    inputs: Inputs,
    base: LlamaModel,
    model: LlamaModel,
}

fn set_up(seed: u64) -> Setup {
    runtime::reset();
    let inputs = Inputs::generate(seed);
    let base = LlamaModel::new(CONFIG, DType::Bf16, Device::gpu(), MODEL_SEED);
    let model = LlamaModel::new(CONFIG, DType::Bf16, Device::gpu(), MODEL_SEED);
    // Warm-up: one short call, so allocator and caches are warm before
    // anything is timed.
    CompressionPipeline::new(spec()).fine_tune_and_compress(&model, &inputs.batches[..1]);
    Setup {
        inputs,
        base,
        model,
    }
}

/// One untimed-reset, timed `fine_tune_and_compress` call.
struct Call {
    secs: f64,
    losses: Vec<f32>,
    peak_bytes: usize,
    model_bytes: usize,
    sim_s: f64,
    compressed: edkm_core::CompressedModel,
}

fn run_call(s: &Setup, spec: &CompressSpec) -> Call {
    s.model.copy_weights_from(&s.base);
    runtime::reset_peak(Device::Cpu);
    let sim0 = runtime::sim_seconds();
    let t = Instant::now();
    let res =
        CompressionPipeline::new(spec.clone()).fine_tune_and_compress(&s.model, &s.inputs.batches);
    let secs = t.elapsed().as_secs_f64();
    Call {
        secs,
        peak_bytes: runtime::peak_bytes(Device::Cpu),
        sim_s: runtime::sim_seconds() - sim0,
        model_bytes: res.compressed.size_bytes(),
        losses: res.losses,
        compressed: res.compressed,
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Run calls until `window` has elapsed (at least two).
fn run_window(s: &Setup, window: Duration) -> Vec<Call> {
    let spec = spec();
    let t0 = Instant::now();
    let mut calls = Vec::new();
    while calls.len() < 2 || t0.elapsed() < window {
        calls.push(run_call(s, &spec));
    }
    calls
}

/// Gates shared by both modes; returns the exported model's perplexity.
fn check_calls(s: &Setup, calls: &[Call], out: &mut Outcome) -> f64 {
    let first = &calls[0];
    for (i, c) in calls.iter().enumerate() {
        out.attempted += c.losses.len() as u64;
        out.failed += c.losses.iter().filter(|l| !l.is_finite()).count() as u64;
        out.check(same_bits(&c.losses, &first.losses), || {
            format!(
                "call {i} losses {:?} differ from call 0 {:?}",
                c.losses, first.losses
            )
        });
        out.check(c.model_bytes == first.model_bytes, || {
            format!(
                "call {i} exported {} B, call 0 {} B",
                c.model_bytes, first.model_bytes
            )
        });
    }

    // eDKM must not change the arithmetic: the first steps equal a run
    // that keeps saved tensors resident.
    let mut reference = spec();
    reference.edkm.offload = false;
    s.model.copy_weights_from(&s.base);
    let plain = CompressionPipeline::new(reference)
        .fine_tune_and_compress(&s.model, &s.inputs.batches[..REFERENCE_STEPS]);
    out.check(
        same_bits(&plain.losses, &first.losses[..REFERENCE_STEPS]),
        || {
            format!(
                "offload:false losses {:?} differ from eDKM {:?}",
                plain.losses,
                &first.losses[..REFERENCE_STEPS]
            )
        },
    );

    let shipped = LlamaModel::new(CONFIG, DType::Bf16, Device::gpu(), MODEL_SEED);
    calls
        .last()
        .expect("at least one call")
        .compressed
        .apply_to(&shipped);
    let ppl = f64::from(perplexity(&shipped, &s.inputs.eval));
    out.check(ppl.is_finite() && ppl > 0.0, || {
        format!("eval perplexity {ppl}")
    });
    ppl
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_s) = timed_setups(seed);
    out.note("fingerprint", s.inputs.fingerprint());
    let calls = run_window(&s, Duration::from_secs_f64(seconds));
    let ppl = check_calls(&s, &calls, &mut out);

    let secs: Vec<f64> = calls.iter().map(|c| c.secs).collect();
    out.set("setup_s", setup_s);
    out.set(
        "tok_s",
        s.inputs.tokens_per_call() as f64 / stats::median(&secs),
    );
    out.set("op_ms_p50", stats::median(&secs) * 1e3);
    out.set(
        "peak_bytes",
        stats::median(
            &calls
                .iter()
                .map(|c| c.peak_bytes as f64)
                .collect::<Vec<_>>(),
        ),
    );
    out.set("model_bytes", calls[0].model_bytes as f64);
    out.set("eval_ppl", ppl);
    out.note(
        "calls",
        format!(
            "{} of {} steps x {} tokens",
            calls.len(),
            STEPS,
            BATCH * SEQ
        ),
    );
    out.note(
        "call_ms",
        format!("{:.1?}", secs.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
    );
    out.note("op", "one fine_tune_and_compress call (export included)");
    out.note("train_sim_s", format!("{:.6}", calls[0].sim_s));
    out
}

fn timed_setups(seed: u64) -> (Setup, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let s = set_up(seed);
        times.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    (last.expect("SETUPS > 0"), stats::median(&times))
}

/// Per-step counters gathered by [`TracedHooks`].
#[derive(Debug, Default, Clone, Copy)]
struct EntryTally {
    uniquified: usize,
    uniq_stored: usize,
    uniq_dense: usize,
    sharded: usize,
    local_bytes: usize,
}

/// `EdkmHooks` with a span around every pack and unpack, plus a tally of
/// the distinct stored entries the packs produced.
struct TracedHooks {
    inner: EdkmHooks,
    tracer: Arc<Tracer>,
    seen: Mutex<HashSet<usize>>,
    tally: Mutex<EntryTally>,
}

impl TracedHooks {
    fn new(config: EdkmConfig, tracer: Arc<Tracer>) -> Self {
        TracedHooks {
            inner: EdkmHooks::new(config),
            tracer,
            seen: Mutex::new(HashSet::new()),
            tally: Mutex::new(EntryTally::default()),
        }
    }

    fn record(&self, entry: &Arc<StoredEntry>, dtype: DType) {
        let key = Arc::as_ptr(entry) as usize;
        if !self.seen.lock().expect("hook tally lock").insert(key) {
            return;
        }
        let mut t = self.tally.lock().expect("hook tally lock");
        if entry.is_uniquified() {
            t.uniquified += 1;
            t.uniq_stored += entry.compact_total_bytes();
            t.uniq_dense += entry.storage_len() * dtype.size_bytes();
        }
        if entry.is_sharded() {
            t.sharded += 1;
        }
        t.local_bytes += entry.local_bytes();
    }
}

impl SavedTensorHooks for TracedHooks {
    fn pack(&self, t: &Tensor) -> PackedTensor {
        let packed = {
            let _s = self.tracer.span("hooks.pack");
            self.inner.pack(t)
        };
        if let PackedTensor::Custom(b) = &packed {
            if let Some(p) = b.downcast_ref::<EdkmPacked>() {
                self.record(&p.entry, t.dtype());
            }
        }
        packed
    }

    fn unpack(&self, p: &PackedTensor) -> Tensor {
        let _s = self.tracer.span("hooks.unpack");
        self.inner.unpack(p)
    }

    fn name(&self) -> &str {
        "traced-edkm"
    }
}

/// One traced replay of the pipeline call.
struct TracedCall {
    secs: f64,
    losses: Vec<f32>,
    hooks: Vec<HookStatsSnapshot>,
    entries: Vec<EntryTally>,
    /// `(iterations run, cluster calls)` per step.
    dkm: Vec<(usize, usize)>,
    d2h: usize,
    h2d: usize,
    sim_s: f64,
    model_bytes: usize,
}

/// `fine_tune_and_compress`, replayed through its public entry points:
/// the same hooks per step, the same DKM weight hook, `lm_loss`,
/// `backward`, `clip_grad_norm` + `AdamW::step`, then `export`.
fn traced_call(s: &Setup, spec: &CompressSpec, tracer: &Arc<Tracer>) -> TracedCall {
    s.model.copy_weights_from(&s.base);
    let model = &s.model;
    let clusterable: HashSet<String> = model.clusterable_names().into_iter().collect();
    let params = model.params();
    let mut optim = AdamW::with_schedule(spec.train.optim, spec.train.schedule);
    let mut call = TracedCall {
        secs: 0.0,
        losses: Vec::new(),
        hooks: Vec::new(),
        entries: Vec::new(),
        dkm: Vec::new(),
        d2h: 0,
        h2d: 0,
        sim_s: 0.0,
        model_bytes: 0,
    };
    let x0 = runtime::transfer_snapshot();
    let sim0 = runtime::sim_seconds();
    let t = Instant::now();
    for epoch in 0..spec.epochs {
        for batch in &s.inputs.batches {
            let _step = tracer.span("train.step");
            uniquify::clear_annotations();
            let hooks = Arc::new(TracedHooks::new(spec.edkm, Arc::clone(tracer)));
            let iters = Cell::new(0usize);
            let calls = Cell::new(0usize);
            {
                let _guard = push_hooks(Arc::clone(&hooks) as Arc<dyn SavedTensorHooks>);
                let hook = |name: &str, w: &Var| -> Var {
                    if clusterable.contains(name) {
                        let _s = tracer.span("dkm.cluster");
                        let out = DkmLayer::new(spec.dkm_for_epoch(name, epoch)).cluster(w);
                        iters.set(iters.get() + out.iterations_run);
                        calls.set(calls.get() + 1);
                        out.soft
                    } else {
                        w.clone()
                    }
                };
                let loss = {
                    let _s = tracer.span("nn.forward");
                    model.lm_loss(&batch.seqs, Some(&hook))
                };
                call.losses.push(loss.value().item());
                {
                    let _s = tracer.span("autograd.backward");
                    loss.backward();
                }
                let _s = tracer.span("optim.step");
                clip_grad_norm(&params, spec.train.clip_norm);
                optim.step(&params);
            }
            call.hooks.push(hooks.inner.stats());
            call.entries
                .push(*hooks.tally.lock().expect("hook tally lock"));
            call.dkm.push((iters.get(), calls.get()));
        }
    }
    uniquify::clear_annotations();
    let x1 = runtime::transfer_snapshot();
    call.d2h = x1.d2h_bytes - x0.d2h_bytes;
    call.h2d = x1.h2d_bytes - x0.h2d_bytes;
    let compressed = {
        let _s = tracer.span("pipeline.export");
        CompressionPipeline::new(spec.clone()).export(model)
    };
    call.secs = t.elapsed().as_secs_f64();
    call.sim_s = runtime::sim_seconds() - sim0;
    call.model_bytes = compressed.size_bytes();
    call
}

/// The traced run: untraced calls for half the time, traced replays for
/// the other half, then every per-layer metric.
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (s, _) = timed_setups(seed);
    out.note("fingerprint", s.inputs.fingerprint());
    let half = Duration::from_secs_f64(seconds / 2.0);
    let calls = run_window(&s, half);
    check_calls(&s, &calls, &mut out);

    let spec = spec();
    let tracer = Arc::new(Tracer::default());
    let t0 = Instant::now();
    let mut replays = Vec::new();
    while replays.len() < 2 || t0.elapsed() < half {
        replays.push(traced_call(&s, &spec, &tracer));
    }
    let spans = tracer.take();
    if let Err(e) = trace::validate(&spans) {
        out.errors.push(format!("span tree: {e}"));
    }
    for (i, r) in replays.iter().enumerate() {
        out.attempted += r.losses.len() as u64;
        out.failed += r.losses.iter().filter(|l| !l.is_finite()).count() as u64;
        out.check(same_bits(&r.losses, &calls[0].losses), || {
            format!(
                "traced replay {i} losses {:?} differ from the pipeline's {:?}",
                r.losses, calls[0].losses
            )
        });
        out.check(r.model_bytes == calls[0].model_bytes, || {
            format!(
                "traced replay {i} exported {} B, pipeline {} B",
                r.model_bytes, calls[0].model_bytes
            )
        });
    }

    let steps = replays.iter().map(|r| r.losses.len()).sum::<usize>() as f64;
    let n_calls = replays.len() as f64;
    let totals = trace::totals(&spans);
    let per_step_ms = |name: &str, own: bool| {
        totals.get(name).map_or(0.0, |t| {
            let ns = if own {
                t.self_ns as f64
            } else {
                t.total_ns as f64
            };
            ns / 1e6 / steps
        })
    };
    let step_ms = stats::sorted(trace::durations_ms(&spans, "train.step"));
    out.set("train.step_ms_p50", stats::percentile(&step_ms, 0.5));
    out.set("train.step_ms_p90", stats::percentile(&step_ms, 0.9));
    out.set("train.other_ms", per_step_ms("train.step", true));
    out.set("dkm.cluster_ms", per_step_ms("dkm.cluster", true));
    out.set("nn.forward_self_ms", per_step_ms("nn.forward", true));
    out.set(
        "autograd.backward_self_ms",
        per_step_ms("autograd.backward", true),
    );
    out.set("hooks.pack_ms", per_step_ms("hooks.pack", false));
    out.set("hooks.unpack_ms", per_step_ms("hooks.unpack", false));
    out.set("optim.step_ms", per_step_ms("optim.step", false));
    out.set(
        "pipeline.export_ms",
        totals
            .get("pipeline.export")
            .map_or(0.0, |t| t.total_ns as f64 / 1e6 / n_calls),
    );

    let (iters, dkm_calls) = replays
        .iter()
        .flat_map(|r| r.dkm.iter())
        .fold((0, 0), |(i, c), &(di, dc)| (i + di, c + dc));
    out.set("dkm.calls", dkm_calls as f64 / steps);
    out.set(
        "dkm.iters_mean",
        stats::ratio(iters as f64, dkm_calls as f64),
    );

    let hooks: Vec<HookStatsSnapshot> = replays
        .iter()
        .flat_map(|r| r.hooks.iter().copied())
        .collect();
    let sum = |f: fn(&HookStatsSnapshot) -> usize| hooks.iter().map(f).sum::<usize>() as f64;
    out.set("hooks.packs", sum(|h| h.packs) / steps);
    out.set(
        "hooks.dedup_ratio",
        stats::ratio(sum(|h| h.direct_hits + h.walk_hits), sum(|h| h.packs)),
    );
    out.set("hooks.walk_hits", sum(|h| h.walk_hits) / steps);
    out.set(
        "hooks.unpack_cache_ratio",
        stats::ratio(sum(|h| h.cache_hits), sum(|h| h.unpacks)),
    );

    let entries: Vec<EntryTally> = replays
        .iter()
        .flat_map(|r| r.entries.iter().copied())
        .collect();
    let esum = |f: fn(&EntryTally) -> usize| entries.iter().map(f).sum::<usize>() as f64;
    out.set("uniquify.entries", esum(|e| e.uniquified) / steps);
    out.set(
        "uniquify.bytes_ratio",
        stats::ratio(esum(|e| e.uniq_stored), esum(|e| e.uniq_dense)),
    );
    out.set("store.sharded_entries", esum(|e| e.sharded) / steps);
    out.set("store.local_bytes", esum(|e| e.local_bytes) / steps);

    let rsum = |f: fn(&TracedCall) -> f64| replays.iter().map(f).sum::<f64>();
    out.set("runtime.d2h_bytes", rsum(|r| r.d2h as f64) / steps);
    out.set("runtime.h2d_bytes", rsum(|r| r.h2d as f64) / steps);
    out.set("runtime.sim_s", rsum(|r| r.sim_s) / n_calls);

    let untraced_ms = stats::mean(&calls.iter().map(|c| c.secs * 1e3).collect::<Vec<_>>());
    let traced_ms = rsum(|r| r.secs * 1e3) / n_calls;
    out.set("harness.overhead_ratio", traced_ms / untraced_ms - 1.0);
    out.note(
        "traced",
        format!(
            "{} calls, {} steps, {} spans",
            replays.len(),
            steps,
            spans.len()
        ),
    );
    if !stats::supports(step_ms.len(), 900) {
        out.note(
            "train.step_ms_p90",
            format!(
                "{} steps: fewer than the 100 a p90 needs; read it as an upper sample",
                step_ms.len()
            ),
        );
    }
    out
}
