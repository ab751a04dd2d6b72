//! §5.2's implication, measured: train an n-gram prefetcher on yesterday's
//! trace, deploy it on today's traffic, and compare cache hit ratios
//! against both no prefetching and manifest-driven prefetching.
//!
//! ```sh
//! cargo run --release --example prefetch_simulation
//! ```

use jcdn::cdnsim::SimConfig;
use jcdn::core::dataset;
use jcdn::core::report::{pct, TextTable};
use jcdn::prefetch::eval::compare_policies;
use jcdn::prefetch::{ManifestPrefetcher, NgramPrefetcher};
use jcdn::workload::{build, WorkloadConfig};

fn main() {
    // "Yesterday": the training capture. "Today": same population, replayed
    // with the same seed — the steady-state app traffic a CDN sees.
    let config = WorkloadConfig::tiny(777);
    println!("Simulating the training day...");
    let yesterday = dataset::simulate(&config);
    println!("Building today's traffic...");
    let today = build(&config);
    let sim = SimConfig::default();

    let mut table = TextTable::new(&["Policy", "Hit ratio", "Uplift", "Prefetches", "Precision"]);

    // Baseline numbers come from any comparison's baseline half.
    let mut ngram = NgramPrefetcher::train(&yesterday.trace, 1, 5);
    ngram.bind_universe(&today.objects);
    let ngram_cmp = compare_policies(&today, &sim, &mut ngram);

    let mut manifest = ManifestPrefetcher::new();
    manifest.bind_universe(&today.objects);
    let manifest_cmp = compare_policies(&today, &sim, &mut manifest);

    let base_ratio = ngram_cmp.baseline.cacheable_hit_ratio().unwrap_or(0.0);
    table.row(&[
        "none (baseline)".into(),
        pct(base_ratio),
        "-".into(),
        "0".into(),
        "-".into(),
    ]);
    for (name, cmp) in [
        ("ngram top-5", &ngram_cmp),
        ("manifest push", &manifest_cmp),
    ] {
        table.row(&[
            name.into(),
            pct(cmp.with_policy.cacheable_hit_ratio().unwrap_or(0.0)),
            format!("{:+.1}pp", cmp.hit_ratio_uplift().unwrap_or(0.0) * 100.0),
            cmp.with_policy.prefetch_issued.to_string(),
            cmp.prefetch_precision()
                .map(pct)
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("\n{}", table.render());

    println!(
        "Extra origin traffic paid by the n-gram policy: {:.1} MiB",
        ngram_cmp.extra_origin_bytes() as f64 / (1 << 20) as f64
    );
    println!(
        "Normal-class mean latency delta: {:+.2} ms",
        ngram_cmp.normal_latency_delta().unwrap_or(0.0) * 1e3
    );
}
