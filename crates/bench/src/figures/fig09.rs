//! Fig. 9: finding the optimal NVMe/TCP chunk size (§4.5).
//!
//! Random reads over TCP-25G; the application-level chunk size is swept
//! from 64 KiB to 2 MiB for I/O streams of 128 KiB – 2 MiB. Anchors: very
//! small chunks hurt bandwidth (per-chunk CPU), very large chunks waste
//! target memory for little gain; 512 KiB is the sweet spot for 25 G.

use oaf_core::sim::fabric::{select_chunk, CHUNK_LADDER};
use oaf_core::sim::{run_uniform, FabricKind, Pattern, SimParams};
use oaf_simnet::time::SimDuration;
use oaf_simnet::units::{KIB, MIB};

use crate::config::workload;
use crate::{FigureReport, ShapeCheck, Table};

/// Runs the figure.
pub fn run() -> FigureReport {
    let mut rep = FigureReport::new(
        "fig9",
        "Chunk-size sweep for NVMe/TCP-25G, random reads",
        "1 stream, QD128, chunk 64K..2M x I/O 128K..2M; plus the adaptive selector's pick",
    );

    let ios = [128 * KIB, 512 * KIB, MIB, 2 * MIB];

    let mut t = Table::new(
        "Bandwidth (MiB/s) by chunk size (rows) and I/O size (cols)",
        &["128K", "512K", "1M", "2M"],
    );
    let mut by_chunk: Vec<(u64, f64)> = Vec::new();
    for chunk in CHUNK_LADDER {
        let mut row = Vec::new();
        let mut sum = 0.0;
        for &io in &ios {
            let m = run_uniform(
                FabricKind::TcpOpt {
                    gbps: 25.0,
                    chunk,
                    busy_poll: SimDuration::ZERO,
                },
                1,
                workload(io, 1.0).with_pattern(Pattern::Random),
            );
            row.push(m.bandwidth_mib());
            sum += m.bandwidth_mib();
        }
        t.row(format!("{}K", chunk / KIB), row);
        by_chunk.push((chunk, sum));
    }
    rep.tables.push(t);

    // The measured best chunk (by summed bandwidth).
    let best = by_chunk
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty")
        .0;
    // The model's own pick (what the adaptive fabric uses): the chunk
    // whose per-chunk service, as the sweep above charges it, is least.
    let picked = select_chunk(&SimParams::paper_testbed(), &ios);

    rep.checks.push(ShapeCheck::holds(
        "512K is near-optimal for 25G (§4.5): measured best within {256K, 512K, 1M}",
        format!("measured best chunk = {}K", best / KIB),
        (256 * KIB..=MIB).contains(&best),
    ));
    rep.checks.push(ShapeCheck::holds(
        "the adaptive selector picks 512K for 25G (§4.5)",
        format!("selector picked {}K", picked / KIB),
        picked == 512 * KIB,
    ));
    let small = by_chunk[0].1;
    let best_sum = by_chunk.iter().map(|x| x.1).fold(0.0, f64::max);
    rep.checks.push(ShapeCheck::holds(
        "very low chunk size hurts bandwidth (§4.5)",
        format!("64K sum {:.0} vs best sum {:.0}", small, best_sum),
        small < best_sum * 0.93,
    ));
    rep
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg_attr(debug_assertions, ignore = "heavy simulation; run with --release")]
    fn fig9_shapes_hold() {
        let r = super::run();
        assert!(r.all_pass(), "{}", r.render());
    }
}
