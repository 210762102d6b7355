//! `tournament` — the leakage-vs-overhead frontier of every defense.
//!
//! Sweeps **every attack** (basic / locality / advanced, each under both
//! neighbour-table tie-break policies, batch *and* streaming) against
//! **every shipped [`DefenseScheme`]** on the synthetic FSL-like backup
//! pair, at 1M-chunk scale by default. Every defended stream travels the
//! real route: the scheme encrypts the target backup, the ciphertext is
//! uploaded through `freqdedup_server::client::Client` to a loopback
//! `Server` in epoch-sized commits, and the attacks read the provider's
//! `AdversaryTap` — batch via a series recompute over the committed tape,
//! streaming via the tap's running `IncrementalStats` — so the recorded
//! rates are what the provider-side adversary actually achieves.
//!
//! The roster (the frontier's rows):
//!
//! * `none` — [`NoDefense`], the baseline; its ciphertext stream is
//!   asserted **bit-identical** to the plain deterministic-MLE pipeline.
//! * `minhash`, `scramble`, `minhash-scramble` — the paper's §6–§7
//!   defenses on the trait.
//! * `ted@b` — TED-style tunable dedup at storage-blowup budgets
//!   1.25 / 1.5 / 2.0.
//! * `pfse@b` — partition-based frequency smoothing (8 partitions) at
//!   the same budgets.
//!
//! Per row the tournament records the measured storage blowup (unique
//! ciphertexts / unique plaintexts), encryption wall-clock and
//! throughput, and the inference rate per attack × policy; it asserts
//! streaming ≡ batch for every cell and — the acceptance bar — that TED
//! and PFSE at ≤2× blowup infer **strictly less** than `none` under the
//! locality attack on both policies. The frontier replaces the `defense.`
//! rows of `BENCH_attack.json` (DESIGN.md §6; `ci/bench_guard.py` gates
//! encryption throughput at 30% and holds leakage rates and blowups to
//! exact equality — the sweep is deterministic, so any drift is a
//! correctness bug).
//!
//! Usage: `tournament [--quick] [--threads T] [--out PATH]`
//!
//! * `--quick` — CI-sized run (~60k logical chunks per backup, default
//!   ~1M);
//! * `--threads T` — attack worker threads (default 0 = auto);
//! * `--out PATH` — report whose `defense.` rows are replaced (default
//!   `BENCH_attack.json`; other rows are preserved).

use freqdedup_bench::cli;
use freqdedup_bench::harness::{self, build_pair, sorted_pairs, store_config, timed};
use freqdedup_bench::output::{Kind, Rows};
use freqdedup_core::attacks::locality::LocalityParams;
use freqdedup_core::attacks::{self, AttackKind};
use freqdedup_core::counting::TiePolicy;
use freqdedup_core::defense::prelude::*;
use freqdedup_core::metrics;
use freqdedup_core::par::ParConfig;
use freqdedup_mle::trace_enc::{DeterministicTraceEncryptor, EncryptedBackup};
use freqdedup_server::client::Client;
use freqdedup_server::server::{Server, ServerConfig, TapView};
use freqdedup_trace::Backup;

const USAGE: &str = "usage: tournament [--quick] [--threads T] [--out PATH]
Runs every attack (basic/locality/advanced x both tie-break policies,
batch + streaming) against every defense scheme through the real
client -> server -> adversary-tap route and writes the resulting
leakage-vs-overhead frontier into BENCH_attack.json as its `defense.`
rows. Asserts the NoDefense stream bit-identical to the plain MLE
pipeline, streaming == batch everywhere, and TED/PFSE at <=2x blowup
strictly below NoDefense under the locality attack.";

/// Commits per defended upload: enough boundaries to exercise the
/// streaming fold without drowning the run in connection setup.
const EPOCHS: usize = 8;
const KINDS: [AttackKind; 3] = [
    AttackKind::Basic,
    AttackKind::Locality,
    AttackKind::Advanced,
];
/// The tunable budgets swept for TED and PFSE (all within the 2x
/// acceptance ceiling).
const BUDGETS: [f64; 3] = [1.25, 1.5, 2.0];
/// PFSE partition count (the paper-shaped default).
const PARTITIONS: usize = 8;

/// One frontier row: a scheme configuration with its measured overhead
/// and the inference rate per attack kind x tie-break policy.
struct Row {
    label: String,
    budget: Option<f64>,
    blowup: f64,
    encrypt_ms: f64,
    enc_chunks_per_ms: f64,
    /// `rates[kind][policy]`, kinds in [`KINDS`] order, policies in
    /// `[StreamOrder, KeyOrder]` order.
    rates: [[f64; 2]; 3],
}

impl Row {
    fn locality(&self) -> [f64; 2] {
        self.rates[1]
    }

    /// This scheme's report rows.
    fn rows(&self) -> Rows {
        let mut rows = Rows::default();
        if let Some(budget) = self.budget {
            rows.push(Kind::Info, "budget", "ratio", (budget, 2));
        }
        rows.push(Kind::Exact, "blowup", "ratio", (self.blowup, 4));
        rows.push(Kind::Info, "encrypt_ms", "ms", (self.encrypt_ms, 1));
        let tput = (self.enc_chunks_per_ms, 1);
        rows.push(Kind::Higher, "enc_chunks_per_ms", "chunks/ms", tput);
        for (attack, rates) in ["basic", "locality", "advanced"].iter().zip(self.rates) {
            for (policy, rate) in ["stream", "key"].iter().zip(rates) {
                rows.push(Kind::Exact, format!("{attack}_{policy}"), "frac", (rate, 6));
            }
        }
        rows
    }
}

/// Uploads the defended ciphertext stream through the real wire stack —
/// one loopback client committing [`EPOCHS`] epoch manifests — and
/// returns the provider's tap plus the committed tape in commit order.
fn serve_and_tap(cipher: &Backup) -> (TapView, Vec<Backup>) {
    let server = Server::bind(ServerConfig {
        workers: 1,
        engine: store_config(cipher.unique_count()),
        ..ServerConfig::default()
    })
    .expect("bind loopback tournament server");
    let addr = server.local_addr().expect("local addr");
    let tap = server.tap_handle();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    let mut client = Client::connect(addr, "tournament").expect("connect tournament client");
    for (i, range) in freqdedup_core::par::shard_ranges(cipher.chunks.len(), EPOCHS)
        .into_iter()
        .filter(|r| !r.is_empty())
        .enumerate()
    {
        let epoch = Backup::from_chunks(format!("epoch-{i:02}"), cipher.chunks[range].to_vec());
        client.upload_backup(&epoch).expect("upload epoch");
        client.commit(&epoch.label).expect("commit epoch");
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let tape = tap.with_tap(|t| {
        assert!(t.streaming_consistent(), "tap streaming state diverged");
        t.committed().to_vec()
    });
    assert_eq!(
        tape.iter().map(Backup::len).sum::<usize>(),
        cipher.len(),
        "tap lost chunks"
    );
    (tap, tape)
}

/// Runs one scheme through encryption, the wire route and the full
/// attack grid; returns the frontier row and the scheme's ciphertext.
fn run_scheme(
    label: &str,
    scheme: &dyn DefenseScheme,
    aux: &Backup,
    target: &Backup,
    ctx: &KeyContext,
    params: &LocalityParams,
) -> (Row, EncryptedBackup) {
    eprintln!("tournament: [{label}] encrypting + serving...");
    let (encrypt_ms, enc) = timed(|| scheme.encrypt_backup(target, ctx));
    assert_eq!(enc.backup.len(), target.len(), "scheme dropped chunks");
    let blowup = enc.backup.unique_count() as f64 / target.unique_count().max(1) as f64;
    if let Some(budget) = scheme.blowup_budget() {
        assert!(
            blowup <= budget + 1e-9,
            "[{label}] blowup {blowup:.4} exceeds budget {budget}"
        );
    }
    let (tap, tape) = serve_and_tap(&enc.backup);

    let mut rates = [[0.0f64; 2]; 3];
    for (k, kind) in KINDS.iter().enumerate() {
        let streamed = tap.with_tap(|t| t.streaming_inference_both_policies(*kind, aux, params));
        for (policy, inferred) in streamed {
            let per_policy = params.clone().tie_policy(policy);
            let batch = attacks::run_ciphertext_only_series(*kind, &tape, aux, &per_policy);
            assert_eq!(
                sorted_pairs(&inferred),
                sorted_pairs(&batch),
                "[{label}] streaming {kind} under {policy:?} diverged from batch"
            );
            let report = metrics::score(&inferred, &enc.backup, &enc.truth);
            let p = usize::from(policy == TiePolicy::KeyOrder);
            rates[k][p] = report.rate;
            eprintln!(
                "tournament: [{label}] {kind}/{policy:?}: rate {:.4} ({}/{})",
                report.rate, report.correct, report.total_unique
            );
        }
    }
    let row = Row {
        label: label.to_string(),
        budget: scheme.blowup_budget(),
        blowup,
        encrypt_ms,
        enc_chunks_per_ms: target.len() as f64 / encrypt_ms.max(1e-9),
        rates,
    };
    (row, enc)
}

fn main() {
    let args = cli::parse_report(std::env::args().skip(1), USAGE, false);
    let threads = ParConfig::with_threads(args.threads).resolve();
    let params = harness::co_params().threads(threads);
    let ctx = harness::key_context();

    eprintln!(
        "tournament: generating pair (~{} chunks per backup), {threads} worker thread(s)...",
        args.chunks()
    );
    let (aux, target) = build_pair(args.chunks());

    // The roster: every shipped scheme, tunables swept across BUDGETS.
    let mut roster: Vec<(String, Box<dyn DefenseScheme>)> = vec![
        ("none".into(), Box::new(NoDefense)),
        (
            "minhash".into(),
            Box::new(MinHashEncryption::new(harness::segment_params(8192))),
        ),
        (
            "scramble".into(),
            Box::new(ScrambleScheme::new(harness::segment_params(8192))),
        ),
        (
            "minhash-scramble".into(),
            Box::new(MinHashScrambleScheme::combined(
                harness::segment_params(8192),
                harness::DEFENSE_SEED,
            )),
        ),
    ];
    for budget in BUDGETS {
        roster.push((
            format!("ted@{budget}"),
            Box::new(TedScheme::new(budget).expect("valid TED budget")),
        ));
        roster.push((
            format!("pfse@{budget}"),
            Box::new(PartitionSmoothing::new(PARTITIONS, budget).expect("valid PFSE parameters")),
        ));
    }

    let mut rows: Vec<Row> = Vec::with_capacity(roster.len());
    for (label, scheme) in &roster {
        let (row, enc) = run_scheme(label, scheme.as_ref(), &aux, &target, &ctx, &params);
        if label == "none" {
            // The acceptance pin: the trait baseline is bit-identical to
            // the pre-trait deterministic-MLE pipeline, stream and truth.
            let direct =
                DeterministicTraceEncryptor::new(harness::MLE_SECRET).encrypt_backup(&target);
            assert_eq!(
                enc.backup.chunks, direct.backup.chunks,
                "NoDefense diverged from the plain deterministic-MLE stream"
            );
            for rec in &direct.backup {
                assert_eq!(
                    enc.truth.plain_of(rec.fp),
                    direct.truth.plain_of(rec.fp),
                    "NoDefense ground truth diverged from the plain pipeline"
                );
            }
            eprintln!("tournament: [none] pinned bit-identical to the undefended pipeline");
        }
        rows.push(row);
    }

    // Acceptance bar: every tunable row at <=2x blowup must leak strictly
    // less than NoDefense under the locality attack, on both policies.
    let baseline = rows[0].locality();
    let mut violations = Vec::new();
    for row in rows.iter().filter(|r| {
        (r.label.starts_with("ted@") || r.label.starts_with("pfse@"))
            && r.budget.is_some_and(|b| b <= 2.0)
    }) {
        for (p, policy) in ["stream", "key"].into_iter().enumerate() {
            if row.locality()[p] >= baseline[p] {
                violations.push(format!(
                    "{} locality/{policy} rate {:.4} not below none's {:.4}",
                    row.label,
                    row.locality()[p],
                    baseline[p]
                ));
            }
        }
    }

    let mut defense = Rows::default();
    defense.push(Kind::Info, "quick", "bool", args.quick);
    defense.push(Kind::Exact, "chunks", "chunks", target.len());
    let unique = target.unique_count();
    defense.push(Kind::Info, "unique_chunks_target", "chunks", unique);
    defense.push(Kind::Info, "epochs", "count", EPOCHS);
    defense.push(Kind::Info, "threads", "threads", threads);
    for row in &rows {
        defense.nest(&row.label, row.rows());
    }
    let mut report = Rows::default();
    report.nest("defense", defense);
    let existing = std::fs::read_to_string(&args.out).unwrap_or_default();
    std::fs::write(&args.out, report.replace_in(&existing, "defense."))
        .unwrap_or_else(|e| cli::die(USAGE, &format!("cannot write {}: {e}", args.out)));

    eprintln!("tournament: frontier ({} rows):", rows.len());
    eprintln!(
        "  {:<18} {:>6} {:>7} {:>9} {:>8} {:>8} {:>8}",
        "scheme", "budget", "blowup", "enc ms", "basic", "locality", "advanced"
    );
    for r in &rows {
        eprintln!(
            "  {:<18} {:>6} {:>7.3} {:>9.1} {:>8.4} {:>8.4} {:>8.4}",
            r.label,
            r.budget.map_or("-".into(), |b| format!("{b:.2}")),
            r.blowup,
            r.encrypt_ms,
            r.rates[0][0].max(r.rates[0][1]),
            r.rates[1][0].max(r.rates[1][1]),
            r.rates[2][0].max(r.rates[2][1]),
        );
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("tournament: FAIL — {v}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "tournament: all schemes within budget, streaming == batch everywhere, \
         TED/PFSE strictly below the undefended locality rate; wrote {}",
        args.out
    );
}
