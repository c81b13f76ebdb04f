//! `serve-decode` and `serve-chat`: closed loops of 8 callers against a
//! `ServeEngine` through its `EngineHandle`, on a d_model 256 × 4-layer
//! 3-bit palettized model with the prefix cache on.
//!
//! One generator thread (the caller of [`run`]) plays all 8 callers: it
//! submits a caller's next request only after that caller's previous
//! reply finished, and multiplexes the 8 token streams by polling. Why a
//! closed loop: chat users and batch callers wait for their replies.

use crate::report::Outcome;
use crate::stats::{self, Fingerprint, Rng};
use edkm_core::{
    ChunkView, CompressSpec, CompressedModel, CompressedTensor, CompressionPipeline, EngineConfig,
    EngineHandle, Generator, KvBlockConfig, KvBlockPool, KvCache, PalettizedModel, Request,
    SamplingConfig, ScratchArena, ServeEngine, ServeModel, StatsSnapshot, StreamPoll, TokenEvent,
    TokenStream,
};
use edkm_nn::{LlamaConfig, LlamaModel};
use edkm_tensor::{runtime, DType, Device, Tensor};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The served model's shape.
const CONFIG: LlamaConfig = LlamaConfig {
    vocab: 256,
    d_model: 256,
    n_heads: 4,
    n_layers: 4,
    d_ff: 512,
    max_seq: 192,
};
/// Closed-loop callers; equal to the engine's default `max_batch`.
const CALLERS: usize = 8;
/// Paging: 16-token blocks; 112 blocks hold every in-flight sequence
/// (8 × 12 blocks at full context) but not every finished history.
const KV: KvBlockConfig = KvBlockConfig {
    block_tokens: 16,
    max_blocks: 112,
};
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests regenerated by `Generator::generate` after the window.
const CHECKS: usize = 6;
/// Held-out windows (and their length) for the served model's perplexity.
const EVAL_WINDOWS: usize = 8;
const EVAL_LEN: usize = 48;
/// The served container's source weights and the held-out windows are
/// fixed, like a released checkpoint and its test split. So are the
/// lengths of every prompt, user turn and reply, so that each seed asks
/// for the same amount of work; the seed draws the token ids and sampling
/// seeds.
const MODEL_SEED: u64 = 7;
const EVAL_SEED: u64 = 3;
const SHAPE_SEED: u64 = 5;
/// Requests fingerprinted from each workload's input script.
const FINGERPRINTED: usize = 512;
/// Longest the generator blocks on one stream before polling the others.
/// It blocks on the stream that produced last, which the next scheduler
/// step feeds along with every other running stream.
const POLL: Duration = Duration::from_millis(2);

/// `serve-decode`: short unshared prompts, long seeded top-k outputs.
const DECODE_PROMPT: (usize, usize) = (4, 16);
const DECODE_NEW: (usize, usize) = (48, 80);
/// `serve-chat`: one shared system prompt, short greedy replies.
const SYSTEM_TOKENS: usize = 32;
const USER_TOKENS: (usize, usize) = (4, 12);
const REPLY: (usize, usize) = (6, 10);

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop of unshared prompts with long sampled outputs.
    Decode,
    /// Closed loop of multi-turn chat sessions sharing a system prompt.
    Chat,
}

impl Kind {
    /// Parse a workload name.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not a serving workload (the caller has
    /// already validated it).
    pub fn from_name(name: &str) -> Kind {
        match name {
            "serve-decode" => Kind::Decode,
            "serve-chat" => Kind::Chat,
            other => panic!("{other} is not a serving workload"),
        }
    }
}

/// The seeded input script: request `i` of `serve-decode`, or turn `t` of
/// chat session `s`, is a pure function of the seed and its index.
#[derive(Debug, Clone)]
struct Script {
    kind: Kind,
    seed: u64,
    system: Vec<usize>,
}

impl Script {
    fn new(kind: Kind, seed: u64) -> Self {
        Script {
            kind,
            seed,
            system: Rng::new(seed, 1).tokens(SYSTEM_TOKENS, CONFIG.vocab),
        }
    }

    /// Request `i` of `serve-decode`: `(prompt, sampling, max_new)`.
    fn decode_request(&self, i: u64) -> (Vec<usize>, SamplingConfig, usize) {
        let stream = 1_000_000 + i;
        let mut shape = Rng::new(SHAPE_SEED, stream);
        let len = shape.range(DECODE_PROMPT.0, DECODE_PROMPT.1);
        let max_new = shape.range(DECODE_NEW.0, DECODE_NEW.1);
        let mut rng = Rng::new(self.seed, stream);
        let prompt = rng.tokens(len, CONFIG.vocab);
        let sampling = SamplingConfig::with_top_k(0.8, 40, rng.next_u64());
        (prompt, sampling, max_new)
    }

    /// Turn `turn` of chat session `session`: `(user tokens, reply length)`.
    fn user_turn(&self, session: u64, turn: u64) -> (Vec<usize>, usize) {
        let stream = (session << 20) ^ turn ^ 0x5e55_1000_0000;
        let mut shape = Rng::new(SHAPE_SEED, stream);
        let len = shape.range(USER_TOKENS.0, USER_TOKENS.1);
        let reply = shape.range(REPLY.0, REPLY.1);
        (Rng::new(self.seed, stream).tokens(len, CONFIG.vocab), reply)
    }

    fn fingerprint(&self) -> String {
        let mut f = Fingerprint::default();
        f.word(MODEL_SEED);
        match self.kind {
            Kind::Decode => {
                for i in 0..FINGERPRINTED as u64 {
                    let (p, s, n) = self.decode_request(i);
                    f.tokens(&p);
                    f.word(s.seed);
                    f.word(n as u64);
                }
            }
            Kind::Chat => {
                f.tokens(&self.system);
                for i in 0..FINGERPRINTED as u64 {
                    let (user, reply) = self.user_turn(i / 8, i % 8);
                    f.tokens(&user);
                    f.word(reply as u64);
                }
            }
        }
        f.hex()
    }

    /// The fixed held-out windows.
    fn eval_windows() -> Vec<Vec<usize>> {
        let mut rng = Rng::new(EVAL_SEED, 3);
        (0..EVAL_WINDOWS)
            .map(|_| rng.tokens(EVAL_LEN, CONFIG.vocab))
            .collect()
    }
}

/// Per-caller request state: a decode caller walks the request script; a
/// chat caller carries its session's running conversation.
#[derive(Debug, Clone)]
struct Caller {
    next_decode: u64,
    session: u64,
    turn: u64,
    history: Vec<usize>,
}

impl Caller {
    fn new(index: usize) -> Self {
        Caller {
            next_decode: index as u64,
            session: index as u64,
            turn: 0,
            history: Vec::new(),
        }
    }

    /// The caller's next request: `(prompt, sampling, max_new)`.
    fn next_request(&mut self, script: &Script) -> (Vec<usize>, SamplingConfig, usize) {
        match script.kind {
            Kind::Decode => {
                let request = script.decode_request(self.next_decode);
                self.next_decode += CALLERS as u64;
                request
            }
            Kind::Chat => {
                let (user, reply) = script.user_turn(self.session, self.turn);
                let mut prompt = if self.turn == 0 {
                    script.system.clone()
                } else {
                    self.history.clone()
                };
                if prompt.len() + user.len() + reply > CONFIG.max_seq {
                    // Context budget reached: this caller starts a new session.
                    self.session += CALLERS as u64;
                    self.turn = 0;
                    return self.next_request(script);
                }
                prompt.extend(user);
                self.turn += 1;
                (prompt, SamplingConfig::greedy(), reply)
            }
        }
    }

    /// Remember the reply (the full sequence, prompt plus generated tokens).
    fn finished(&mut self, tokens: &[usize]) {
        self.history = tokens.to_vec();
    }
}

/// A completed request, kept for the correctness gate.
#[derive(Debug, Clone)]
struct Done {
    prompt: Vec<usize>,
    sampling: SamplingConfig,
    max_new: usize,
    tokens: Vec<usize>,
}

/// One in-flight request of one caller.
struct Flight {
    stream: TokenStream,
    prompt: Vec<usize>,
    sampling: SamplingConfig,
    max_new: usize,
    submitted: Instant,
    last: Instant,
    seen_first: bool,
    in_window: bool,
    window_tokens: Vec<Instant>,
}

/// What one drive of the closed loop observed.
#[derive(Debug, Default)]
struct Record {
    /// When each token inside the window was observed (completed requests
    /// only).
    token_times: Vec<Instant>,
    ttft_ms: Vec<f64>,
    itl_ms: Vec<f64>,
    op_ms: Vec<f64>,
    gen_lag_ms: Vec<f64>,
    submit_us: Vec<f64>,
    prompt_tokens: usize,
    attempted: u64,
    failed: u64,
    in_flight_max: usize,
    cached_blocks_peak: usize,
    done: Vec<Done>,
    submit_threads: std::collections::HashSet<std::thread::ThreadId>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Drive the closed loop: keep every caller's request in flight, submitting
/// a caller's next request as soon as its previous one finishes, until
/// `submits` requests were sent or the window ends; then drain. Requests
/// sent inside `window` are the measured ones.
fn drive(
    handle: &EngineHandle,
    pool: &KvBlockPool,
    script: &Script,
    callers: &mut [Caller],
    submits: Option<usize>,
    window: Option<(Instant, Instant)>,
) -> Record {
    let mut rec = Record::default();
    let mut slots: Vec<Option<Flight>> = (0..callers.len()).map(|_| None).collect();
    let mut freed_at: Vec<Option<Instant>> = vec![None; callers.len()];
    let mut sent = 0usize;
    let mut last_sample = Instant::now();
    let mut wake_on = 0usize;
    loop {
        let now = Instant::now();
        let open = submits.is_none_or(|n| sent < n) && window.is_none_or(|(_, end)| now < end);
        if open {
            for (i, slot) in slots.iter_mut().enumerate() {
                if slot.is_some() || submits.is_some_and(|n| sent >= n) {
                    continue;
                }
                let (prompt, sampling, max_new) = callers[i].next_request(script);
                let request = Request::new(prompt.clone())
                    .max_new_tokens(max_new)
                    .sampling(sampling);
                let t = Instant::now();
                let in_window = window.is_some_and(|(start, _)| t >= start);
                rec.attempted += u64::from(in_window || window.is_none());
                match handle.submit(request) {
                    Ok((_, stream)) => {
                        let after = Instant::now();
                        rec.submit_threads.insert(std::thread::current().id());
                        if in_window {
                            rec.submit_us.push((after - t).as_secs_f64() * 1e6);
                            rec.prompt_tokens += prompt.len();
                            if let Some(f) = freed_at[i] {
                                rec.gen_lag_ms.push(ms(t - f));
                            }
                        }
                        *slot = Some(Flight {
                            stream,
                            prompt,
                            sampling,
                            max_new,
                            submitted: t,
                            last: t,
                            seen_first: false,
                            in_window,
                            window_tokens: Vec::with_capacity(max_new),
                        });
                        sent += 1;
                    }
                    Err(e) => {
                        eprintln!("submit refused: {e}");
                        rec.failed += 1;
                    }
                }
            }
        }
        let in_flight = slots.iter().filter(|s| s.is_some()).count();
        rec.in_flight_max = rec.in_flight_max.max(in_flight);
        if in_flight == 0 {
            if open {
                continue;
            }
            break;
        }
        if last_sample.elapsed() >= Duration::from_millis(5) {
            rec.cached_blocks_peak = rec.cached_blocks_peak.max(pool.prefix_cached_blocks());
            last_sample = Instant::now();
        }

        // Block briefly on the stream that last produced (in decode every
        // in-flight stream gets a token each step), then drain them all.
        if let Some(f) = slots[wake_on].as_mut() {
            let first = f.stream.poll_event(POLL);
            handle_poll(
                first,
                wake_on,
                &mut slots,
                callers,
                &mut freed_at,
                &mut rec,
                window,
            );
        }
        for i in 0..slots.len() {
            while let Some(f) = slots[i].as_mut() {
                let poll = f.stream.poll_event(Duration::ZERO);
                if matches!(poll, StreamPoll::TimedOut) {
                    break;
                }
                wake_on = i;
                handle_poll(
                    poll,
                    i,
                    &mut slots,
                    callers,
                    &mut freed_at,
                    &mut rec,
                    window,
                );
            }
        }
        if slots[wake_on].is_none() {
            wake_on = slots.iter().position(Option::is_some).unwrap_or(0);
        }
    }
    rec
}

fn handle_poll(
    poll: StreamPoll,
    i: usize,
    slots: &mut [Option<Flight>],
    callers: &mut [Caller],
    freed_at: &mut [Option<Instant>],
    rec: &mut Record,
    window: Option<(Instant, Instant)>,
) {
    let now = Instant::now();
    let in_window_now = window.is_some_and(|(start, end)| now >= start && now < end);
    let Some(f) = slots[i].as_mut() else { return };
    match poll {
        StreamPoll::TimedOut => {}
        StreamPoll::Event(TokenEvent::Token { .. }) => {
            if f.in_window {
                if f.seen_first {
                    rec.itl_ms.push(ms(now - f.last));
                } else {
                    rec.ttft_ms.push(ms(now - f.submitted));
                }
            }
            if in_window_now {
                f.window_tokens.push(now);
            }
            f.seen_first = true;
            f.last = now;
        }
        StreamPoll::Event(TokenEvent::Finished(resp)) => {
            let f = slots[i].take().expect("slot is in flight");
            let ok = !resp.finish.is_aborted() && resp.generated == f.max_new;
            if f.in_window || window.is_none() {
                if ok {
                    rec.op_ms.push(ms(now - f.submitted));
                } else {
                    eprintln!(
                        "request failed: {:?} after {} tokens",
                        resp.finish, resp.generated
                    );
                    rec.failed += 1;
                }
            }
            if ok {
                rec.token_times.extend_from_slice(&f.window_tokens);
                callers[i].finished(&resp.tokens);
                if f.in_window {
                    rec.done.push(Done {
                        prompt: f.prompt,
                        sampling: f.sampling,
                        max_new: f.max_new,
                        tokens: resp.tokens,
                    });
                }
            }
            freed_at[i] = Some(now);
        }
        StreamPoll::Ended => {
            let f = slots[i].take().expect("slot is in flight");
            eprintln!("stream ended without a terminal event");
            if f.in_window || window.is_none() {
                rec.failed += 1;
            }
            freed_at[i] = Some(now);
        }
    }
}

/// Wait until the worker has published a snapshot with nothing in flight.
fn settled_stats(handle: &EngineHandle) -> StatsSnapshot {
    let t = Instant::now();
    loop {
        let s = handle.stats();
        if (s.active == 0 && s.queued == 0) || t.elapsed() > Duration::from_secs(5) {
            return s;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `PalettizedModel` that times every batched forward on the engine worker.
struct TracedModel {
    inner: PalettizedModel,
    log: Arc<Mutex<Vec<FwdCall>>>,
}

/// One batched forward: a prefill call has at least one chunk longer than
/// one token (decode rows may ride along).
#[derive(Debug, Clone, Copy)]
struct FwdCall {
    start: Instant,
    end: Instant,
    rows: usize,
    prefill: bool,
}

impl ServeModel for TracedModel {
    fn config(&self) -> &LlamaConfig {
        self.inner.config()
    }
    fn kv_pool(&self) -> &Arc<KvBlockPool> {
        self.inner.kv_pool()
    }
    fn new_cache(&self) -> KvCache {
        self.inner.new_cache()
    }
    fn forward_chunks(&self, chunks: &[&[usize]], caches: &mut [KvCache]) -> Tensor {
        self.inner.forward_chunks(chunks, caches)
    }
    fn forward_chunks_into(
        &self,
        view: ChunkView<'_>,
        caches: &mut [KvCache],
        arena: &mut ScratchArena,
    ) -> Vec<f32> {
        let rows = view.total_tokens();
        let prefill = view.iter().any(|c| c.len() > 1);
        let start = Instant::now();
        let out = ServeModel::forward_chunks_into(&self.inner, view, caches, arena);
        let end = Instant::now();
        self.log.lock().expect("forward log lock").push(FwdCall {
            start,
            end,
            rows,
            prefill,
        });
        out
    }
}

/// The shipped container: a dense model exported at 3 bits. Producing it
/// is input generation, not set-up.
fn artifact() -> Vec<u8> {
    let dense = LlamaModel::new(CONFIG, DType::Bf16, Device::Cpu, MODEL_SEED);
    let mut spec = CompressSpec::with_bits(3);
    spec.dkm.iters = 2;
    CompressionPipeline::new(spec).export(&dense).to_bytes()
}

/// The loaded container and the model served from it.
struct Built {
    compressed: CompressedModel,
    model: PalettizedModel,
}

fn load(container: &[u8]) -> Built {
    let compressed = CompressedModel::from_bytes(container).expect("container decodes");
    let model = PalettizedModel::from_compressed(&compressed, CONFIG)
        .expect("scalar 3-bit export is servable")
        .with_kv_config(KV)
        .with_prefix_cache(true);
    Built { compressed, model }
}

/// Set-up as a deployment pays it: load the container, spawn the engine
/// and warm it with one request per caller. Returns the wall time taken.
fn set_up<M: ServeModel + 'static>(
    script: &Script,
    container: &[u8],
    wrap: impl FnOnce(PalettizedModel) -> M,
    callers: &mut [Caller],
) -> (Built, ServeEngine, f64) {
    let t = Instant::now();
    let built = load(container);
    let engine = ServeEngine::new(wrap(built.model.clone()), EngineConfig::default());
    let pool = Arc::clone(built.model.kv_pool());
    let warm = drive(
        &engine.handle(),
        &pool,
        script,
        callers,
        Some(CALLERS),
        None,
    );
    assert_eq!(warm.failed, 0, "warm-up requests failed");
    settled_stats(&engine.handle());
    (built, engine, t.elapsed().as_secs_f64())
}

/// Teacher-forced perplexity of the served model.
fn served_ppl(model: &PalettizedModel, windows: &[Vec<usize>]) -> f64 {
    let vocab = CONFIG.vocab;
    let (mut nll, mut n) = (0.0f64, 0usize);
    for w in windows {
        let mut cache = model.new_cache();
        let logits = model.prefill(&w[..w.len() - 1], &mut cache).to_vec();
        for (row, &target) in logits.chunks(vocab).zip(&w[1..]) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = row
                .iter()
                .map(|&x| f64::from(x - max).exp())
                .sum::<f64>()
                .ln()
                + f64::from(max);
            nll += lse - f64::from(row[target]);
            n += 1;
        }
    }
    (nll / n as f64).exp()
}

/// Regenerate a seeded sample of completed requests alone with
/// `Generator::generate`: tokens must not depend on batch composition.
fn check_tokens(model: &PalettizedModel, done: &[Done], seed: u64, out: &mut Outcome) {
    let solo = model.clone().with_kv_config(KvBlockConfig::default());
    let generator = Generator::new(&solo);
    let mut rng = Rng::new(seed, 4);
    let n = done.len().min(CHECKS);
    out.check(n > 0, || "no completed request to check".into());
    for _ in 0..n {
        let d = &done[rng.range(0, done.len() - 1)];
        let alone = generator.generate(&d.prompt, d.max_new, &d.sampling);
        out.check(alone == d.tokens, || {
            format!(
                "prompt {:?}: engine produced {:?}, Generator {:?}",
                d.prompt,
                &d.tokens[d.prompt.len()..],
                &alone[d.prompt.len().min(alone.len())..]
            )
        });
    }
    out.note(
        "tokens_checked",
        format!("{n} requests regenerated alone, token for token"),
    );
}

/// Record-level gates and harness self-checks.
fn check_record(rec: &Record, out: &mut Outcome) {
    out.attempted += rec.attempted;
    out.failed += rec.failed;
    out.check(rec.submit_threads.len() == 1, || {
        format!(
            "load came from {} threads, not one",
            rec.submit_threads.len()
        )
    });
    out.check(rec.in_flight_max <= CALLERS, || {
        format!(
            "{} requests in flight, more than {CALLERS}",
            rec.in_flight_max
        )
    });
    out.check(!rec.op_ms.is_empty(), || {
        "no request completed in the window".into()
    });
}

/// Output tokens per second: the median over the window's one-second
/// slices, so a burst of host contention moves a slice, not the result.
fn sliced_rate(times: &[Instant], start: Instant, seconds: f64) -> f64 {
    let slices = (seconds.floor() as usize).max(1);
    let width = seconds / slices as f64;
    let mut counts = vec![0.0f64; slices];
    for t in times {
        let i = ((*t - start).as_secs_f64() / width) as usize;
        counts[i.min(slices - 1)] += 1.0;
    }
    stats::median(&counts) / width
}

/// Median and the highest tail percentile the sample count supports.
fn latency_note(samples: &[f64]) -> String {
    let s = stats::sorted(samples.to_vec());
    let mut note = format!("p50 {:.3} ms", stats::percentile(&s, 0.5));
    if let Some(tail) = stats::highest_supported(s.len()) {
        let p = tail as f64 / 1000.0;
        note += &format!(", p{} {:.3} ms", p * 100.0, stats::percentile(&s, p));
    }
    note + &format!(", n={}", s.len())
}

/// One measured window and what it ran on.
struct Window {
    built: Built,
    rec: Record,
    before: StatsSnapshot,
    after: StatsSnapshot,
    setup_s: f64,
    start: Instant,
    end: Instant,
}

/// Set up `setups_wanted` times, keep the last engine, and measure one
/// window on it. The engine is shut down before returning.
fn run_window<M: ServeModel + 'static>(
    script: &Script,
    container: &[u8],
    setups_wanted: usize,
    wrap: impl Fn(PalettizedModel) -> M,
    seconds: f64,
) -> Window {
    let mut callers = Vec::new();
    let mut setups = Vec::with_capacity(setups_wanted);
    let mut kept = None;
    for _ in 0..setups_wanted {
        if let Some((_, engine)) = kept.take() {
            ServeEngine::shutdown(engine);
        }
        callers = (0..CALLERS).map(Caller::new).collect();
        let (built, engine, secs) = set_up(script, container, &wrap, &mut callers);
        setups.push(secs);
        kept = Some((built, engine));
    }
    let (built, engine) = kept.expect("at least one set-up");
    let handle = engine.handle();
    let before = handle.stats();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let rec = drive(
        &handle,
        built.model.kv_pool(),
        script,
        &mut callers,
        None,
        Some((start, end)),
    );
    let after = settled_stats(&handle);
    engine.shutdown();
    Window {
        built,
        rec,
        before,
        after,
        setup_s: stats::median(&setups),
        start,
        end,
    }
}

/// Run one serving workload, untraced (end-to-end metrics) or traced
/// (per-layer metrics).
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Outcome {
    runtime::reset();
    let script = Script::new(kind, seed);
    let mut out = Outcome::default();
    out.note("fingerprint", script.fingerprint());
    let container = artifact();
    if traced {
        return run_traced(&script, &container, seconds, out);
    }
    let Window {
        built,
        rec,
        before,
        after,
        setup_s,
        start,
        ..
    } = run_window(&script, &container, SETUPS, |m| m, seconds);
    check_record(&rec, &mut out);
    check_tokens(&built.model, &rec.done, seed, &mut out);
    let ppl = served_ppl(&built.model, &Script::eval_windows());
    out.check(ppl.is_finite() && ppl > 0.0, || {
        format!("served perplexity {ppl}")
    });

    out.set("setup_s", setup_s);
    out.set("tok_s", sliced_rate(&rec.token_times, start, seconds));
    out.set("op_ms_p50", stats::median(&rec.op_ms));
    out.set("peak_bytes", after.kv_peak_bytes as f64);
    out.set("model_bytes", built.compressed.size_bytes() as f64);
    out.set("eval_ppl", ppl);
    out.note("op", "one request, submit to terminal event");
    out.note(
        "tok_s_whole_window",
        format!("{:.2}", rec.token_times.len() as f64 / seconds),
    );
    out.note("op_ms", latency_note(&rec.op_ms));
    out.note("ttft_ms", latency_note(&rec.ttft_ms));
    out.note("itl_ms", latency_note(&rec.itl_ms));
    out.note("generator_lag_ms", latency_note(&rec.gen_lag_ms));
    out.note("in_flight_max", rec.in_flight_max);
    out.note(
        "prefix",
        format!(
            "{} hits of {} requests, {:.3} of prompt tokens reused, {} preemptions",
            after.prefix_hits - before.prefix_hits,
            after.submitted - before.submitted,
            stats::ratio(
                (after.prefix_tokens_reused - before.prefix_tokens_reused) as f64,
                rec.prompt_tokens as f64
            ),
            after.preemptions - before.preemptions
        ),
    );
    out
}

fn run_traced(script: &Script, container: &[u8], seconds: f64, mut out: Outcome) -> Outcome {
    let half = seconds / 2.0;
    // Untraced half: the baseline the tracing overhead is measured against.
    let plain = run_window(script, container, 1, |m| m, half).rec;
    check_record(&plain, &mut out);

    let log = Arc::new(Mutex::new(Vec::<FwdCall>::with_capacity(1 << 16)));
    let Window {
        built,
        rec,
        before,
        after,
        start,
        end,
        ..
    } = run_window(
        script,
        container,
        1,
        |inner| TracedModel {
            inner,
            log: Arc::clone(&log),
        },
        half,
    );
    check_record(&rec, &mut out);
    check_tokens(&built.model, &rec.done, script.seed, &mut out);

    // Forward calls of the last engine's window only (set-ups and the
    // drain after the window are excluded).
    let calls: Vec<FwdCall> = log
        .lock()
        .expect("forward log lock")
        .iter()
        .filter(|c| c.start >= start && c.end <= end)
        .copied()
        .collect();
    let wall_ms = ms(end - start);
    let pick = |prefill: bool| -> (Vec<f64>, Vec<f64>) {
        calls
            .iter()
            .filter(|c| c.prefill == prefill)
            .map(|c| (ms(c.end - c.start), c.rows as f64))
            .unzip()
    };
    let (pre_ms, pre_rows) = pick(true);
    let (dec_ms, dec_rows) = pick(false);
    let busy: f64 = calls.iter().map(|c| ms(c.end - c.start)).sum();
    let gaps: Vec<f64> = calls
        .windows(2)
        .map(|w| ms(w[1].start - w[0].end))
        .collect();

    out.set("engine.submit_us_p50", stats::median(&rec.submit_us));
    out.set("infer.prefill_ms_p50", stats::median(&pre_ms));
    out.set("infer.prefill_rows_mean", stats::mean(&pre_rows));
    out.set("infer.prefill_calls", pre_ms.len() as f64);
    out.set("infer.decode_ms_p50", stats::median(&dec_ms));
    out.set("infer.decode_rows_mean", stats::mean(&dec_rows));
    out.set("infer.decode_calls", dec_ms.len() as f64);
    out.set("infer.busy_ratio", busy / wall_ms);
    out.set("serve.step_gap_ms_p50", stats::median(&gaps));
    out.set(
        "serve.preemptions",
        (after.preemptions - before.preemptions) as f64,
    );
    let ttft = stats::sorted(rec.ttft_ms.clone());
    let itl = stats::sorted(rec.itl_ms.clone());
    out.set("serve.ttft_ms_p50", stats::percentile(&ttft, 0.5));
    out.set("serve.ttft_ms_p90", stats::percentile(&ttft, 0.9));
    out.set("serve.itl_ms_p50", stats::percentile(&itl, 0.5));
    out.set("serve.itl_ms_p90", stats::percentile(&itl, 0.9));
    let admitted = (after.submitted - before.submitted) as f64;
    out.set(
        "kv.prefix_hit_ratio",
        stats::ratio((after.prefix_hits - before.prefix_hits) as f64, admitted),
    );
    out.set(
        "kv.prefix_token_ratio",
        stats::ratio(
            (after.prefix_tokens_reused - before.prefix_tokens_reused) as f64,
            rec.prompt_tokens as f64,
        ),
    );
    out.set("kv.peak_blocks", built.model.kv_pool().peak_blocks() as f64);
    out.set("kv.cached_blocks_peak", rec.cached_blocks_peak as f64);
    out.set(
        "scratch.grow_ratio",
        stats::ratio(
            (after.scratch_grows - before.scratch_grows) as f64,
            (after.scratch_checkouts - before.scratch_checkouts) as f64,
        ),
    );
    let (flops, bytes) = projection_cost(&built.compressed);
    out.set("kernel.flops_per_token", flops);
    out.set(
        "kernel.bytes_per_token",
        stats::ratio(bytes, stats::mean(&dec_rows)),
    );
    let gen_lag = stats::sorted(rec.gen_lag_ms.clone());
    out.set("harness.gen_lag_ms_p50", stats::percentile(&gen_lag, 0.5));
    out.set(
        "harness.gen_lag_ms_max",
        gen_lag.last().copied().unwrap_or(0.0),
    );
    out.set("harness.in_flight_max", rec.in_flight_max as f64);
    out.set(
        "harness.overhead_ratio",
        stats::ratio(plain.token_times.len() as f64, rec.token_times.len() as f64) - 1.0,
    );
    out.note(
        "kernel",
        "flops_per_token and bytes_per_token are computed from tensor sizes, not measured",
    );
    out
}

/// `(FLOPs per token, weight bytes per forward)` of every palettized
/// projection: 2·out·in multiply-adds per token, and the packed indices
/// plus LUT each forward call streams once for all of its rows.
fn projection_cost(compressed: &CompressedModel) -> (f64, f64) {
    let (mut flops, mut bytes) = (0.0, 0.0);
    for (_, entry) in compressed.entries() {
        if let CompressedTensor::Palettized(p) = entry {
            flops += 2.0 * p.shape().iter().product::<usize>() as f64;
            bytes += p.size_bytes() as f64;
        }
    }
    (flops, bytes)
}
