//! The defense trade-off in one screen: inference suppression vs storage
//! cost vs metadata overhead for MinHash-only and the combined scheme
//! (condenses Figures 10, 11 and 13 into one run).
//!
//! Run with: `cargo run --release --example defense_tradeoff`

use freqdedup::chunking::segment::SegmentParams;
use freqdedup::core::attacks::{self, AttackKind};
use freqdedup::core::defense::MinHashScrambleScheme;
use freqdedup::core::metrics;
use freqdedup::datasets::fsl::{generate, FslConfig};
use freqdedup::mle::trace_enc::DeterministicTraceEncryptor;
use freqdedup::store::engine::{DedupConfig, DedupEngine};
use freqdedup::trace::par::ParConfig;
use freqdedup::trace::stats::DedupAccumulator;
use freqdedup::trace::BackupSeries;

fn attack_rate(series: &BackupSeries, scheme: Option<&MinHashScrambleScheme>) -> f64 {
    let aux = series.get(2).unwrap();
    let target = series.latest().unwrap();
    let observed = match scheme {
        Some(s) => s.encrypt_backup(target),
        None => DeterministicTraceEncryptor::new(b"secret").encrypt_backup(target),
    };
    let leaked = metrics::leak_pairs(&observed.backup, &observed.truth, 0.0005, 7);
    let inferred = attacks::run_known_plaintext(
        AttackKind::Advanced,
        &observed.backup,
        aux,
        &leaked,
        &attacks::locality::LocalityParams::known_plaintext_default(),
    );
    metrics::score(&inferred, &observed.backup, &observed.truth).rate
}

fn storage_saving(series: &BackupSeries, scheme: Option<&MinHashScrambleScheme>) -> f64 {
    let mut acc = DedupAccumulator::new();
    match scheme {
        Some(s) => {
            let (enc, _) = s.encrypt_series(series);
            for b in &enc {
                acc.add_backup(b);
            }
        }
        None => {
            for b in series {
                acc.add_backup(b);
            }
        }
    }
    acc.storage_saving()
}

fn metadata_bytes(series: &BackupSeries, scheme: Option<&MinHashScrambleScheme>) -> u64 {
    let stream = match scheme {
        Some(s) => s.encrypt_series(series).0,
        None => series.clone(),
    };
    let mut engine = DedupEngine::open(DedupConfig::paper(2 * 1024 * 1024, 400_000)).unwrap();
    for b in &stream {
        engine.ingest_backup(b, ParConfig::sequential());
    }
    engine.finish();
    engine.metadata_access().total_bytes()
}

fn main() {
    let series = generate(&FslConfig::scaled(5_000));
    let params = SegmentParams::paper_default(8192);
    let minhash = MinHashScrambleScheme::minhash_only(params.clone());
    let combined = MinHashScrambleScheme::combined(params, 7);

    println!(
        "{:<18} {:>12} {:>14} {:>14}",
        "scheme", "inference_%", "saving_%", "metadata_MiB"
    );
    for (name, scheme) in [
        ("MLE (undefended)", None),
        ("MinHash only", Some(&minhash)),
        ("Combined", Some(&combined)),
    ] {
        println!(
            "{:<18} {:>12.3} {:>14.1} {:>14.1}",
            name,
            attack_rate(&series, scheme) * 100.0,
            storage_saving(&series, scheme) * 100.0,
            metadata_bytes(&series, scheme) as f64 / (1024.0 * 1024.0),
        );
    }
    println!("\n(advanced attack, known-plaintext mode, 0.05% leakage; FSL-like workload)");
}
