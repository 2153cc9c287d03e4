//! Text Gantt rendering of simulation traces (used by examples and the
//! repro harness for the tele-monitoring scenario, experiment T8).

use crate::{Resource, SimResult};
use hsa_graph::Cost;
use std::fmt::Write as _;

/// Renders a proportional text Gantt chart of the trace, one resource per
/// row, `width` characters across the full makespan:
///
/// ```text
/// host     |····················▓▓▓▓▓▓▓▓▓▓|
/// sat0 cpu |▓▓▓▓▓▓▓▓······················|
/// sat0 up  |········▓▓▓···················|
/// ```
pub fn render_gantt(result: &SimResult, width: usize) -> String {
    let width = width.max(10);
    let span = result.end_to_end.max(Cost::new(1)).ticks();
    // Group intervals per resource, preserving first-seen order.
    let mut order: Vec<Resource> = Vec::new();
    for b in &result.trace {
        if !order.contains(&b.resource) {
            order.push(b.resource);
        }
    }
    order.sort_by_key(|r| match r {
        Resource::HostCpu => (0u32, 0u32),
        Resource::SatelliteCpu(s) => (1, s.0),
        Resource::Uplink(s) => (2, s.0),
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "end-to-end = {} ticks; {} messages",
        result.end_to_end, result.messages
    );
    for res in order {
        let mut row = vec!['·'; width];
        for b in result.trace.iter().filter(|b| b.resource == res) {
            let a = (b.start.ticks().saturating_mul(width as u64) / span) as usize;
            let z = (b.end.ticks().saturating_mul(width as u64) / span) as usize;
            let z = z.clamp(a.min(width - 1), width);
            for slot in row
                .iter_mut()
                .take(z.max(a + 1).min(width))
                .skip(a.min(width - 1))
            {
                *slot = '▓';
            }
        }
        let name = match res {
            Resource::HostCpu => "host    ".to_string(),
            Resource::SatelliteCpu(s) => format!("sat{} cpu", s.0),
            Resource::Uplink(s) => format!("sat{} up ", s.0),
        };
        let bar: String = row.into_iter().collect();
        let _ = writeln!(out, "{name} |{bar}|");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, SimConfig};
    use hsa_assign::Prepared;
    use hsa_tree::figures::fig2_tree;
    use hsa_tree::Cut;

    fn traced() -> SimResult {
        let (t, m) = fig2_tree();
        let prep = Prepared::new(&t, &m).unwrap();
        let cut = Cut::max_offload(&t, &prep.colouring);
        let cfg = SimConfig {
            record_trace: true,
            ..SimConfig::paper_model()
        };
        simulate(&prep, &cut, &cfg).unwrap()
    }

    #[test]
    fn gantt_renders_every_resource() {
        let sim = traced();
        let g = render_gantt(&sim, 60);
        assert!(g.contains("host"));
        assert!(g.contains("sat0 cpu"));
        assert!(g.contains("sat0 up"));
        assert!(g.contains("▓"));
        // Every row has the same width between the bars.
        let widths: Vec<usize> = g
            .lines()
            .skip(1)
            .map(|l| l.chars().filter(|&c| c == '▓' || c == '·').count())
            .collect();
        assert!(widths.iter().all(|&w| w == widths[0]));
    }

    #[test]
    fn empty_trace_renders_header_only() {
        let mut sim = traced();
        sim.trace.clear();
        let g = render_gantt(&sim, 40);
        assert_eq!(g.lines().count(), 1);
    }
}
