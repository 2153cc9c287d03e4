//! Figure reproductions (`f2`–`f9`): the paper's worked examples, printed
//! and written as CSV. Profile-independent — these are exact artefacts,
//! not measurements.

use super::ExpCtx;
use crate::CsvTable;
use hsa_assign::{solve_with_trace, BruteForce, PaperSsbConfig, Prepared, Solver, SsbEvent};
use hsa_graph::{ssb_search, Lambda, SsbConfig};
use hsa_tree::figures::fig2_tree;
use hsa_tree::render::render_tree;
use hsa_tree::{Colour, TreeEdge};
use hsa_workloads::{paper_scenario, random_instance, Placement, RandomTreeParams};

pub(super) fn f2(_ctx: &ExpCtx) {
    let sc = paper_scenario();
    let prep = Prepared::new(&sc.tree, &sc.costs).unwrap();
    println!(
        "{}",
        render_tree(&sc.tree, Some(&sc.costs), Some(&prep.colouring))
    );
    let leaves: Vec<String> = sc
        .tree
        .leaves_in_order()
        .iter()
        .map(|&l| {
            format!(
                "{}→{}",
                sc.tree.node_unchecked(l).name,
                sc.costs.pinned_satellite(l).unwrap()
            )
        })
        .collect();
    println!("leaf order and pinning: {}", leaves.join(", "));
    println!("(satellite B = Sat2 serves sensors under both CRU2 and CRU3 —");
    println!(" the paper's 'some sensors are physically linked to the same satellite')");
}

pub(super) fn f4(ctx: &ExpCtx) {
    let (mut g, s, t) = hsa_graph::figures::fig4_graph();
    let cfg = SsbConfig {
        record_trace: true,
        ..SsbConfig::default()
    };
    let run = ssb_search(&mut g, s, t, &cfg);
    let mut table = CsvTable::new(
        "f4_ssb_trace",
        &[
            "iteration",
            "S",
            "B",
            "SSB",
            "candidate_updated",
            "edges_removed",
        ],
    );
    for (i, it) in run.trace.iter().enumerate() {
        table.row(&[
            (i + 1).to_string(),
            it.s.to_string(),
            it.b.to_string(),
            it.ssb.to_string(),
            it.improved.to_string(),
            it.removed.len().to_string(),
        ]);
    }
    println!("{}", table.render_text());
    let best = run.best.unwrap();
    println!(
        "optimal SSB path: S={} B={} SSB={}   [paper: <5,10>-<5,10>, SSB weight 20]",
        best.s, best.b, best.ssb
    );
    println!(
        "iterations: {}   [paper: three iterations, terminating at S weight 33]",
        run.iterations
    );
    assert_eq!(best.ssb, 20, "Figure 4 reproduction regressed");
    table.write_csv(ctx.out_dir).unwrap();
}

pub(super) fn f5(ctx: &ExpCtx) {
    let (tree, costs) = fig2_tree();
    let prep = Prepared::new(&tree, &costs).unwrap();
    let mut table = CsvTable::new("f5_colouring", &["edge", "colour"]);
    for c in tree.preorder() {
        if c == tree.root() {
            continue;
        }
        let col = match prep.colouring.edge_colour(TreeEdge::Parent(c)) {
            Colour::Conflict => "CONFLICT".to_string(),
            Colour::Satellite(s) => ["R", "Y", "B", "G"][s.index()].to_string(),
        };
        table.row(&[
            format!(
                "<{},{}>",
                tree.node_unchecked(tree.parent(c).unwrap()).name,
                tree.node_unchecked(c).name
            ),
            col,
        ]);
    }
    println!("{}", table.render_text());
    let forced: Vec<&str> = prep
        .colouring
        .host_forced
        .iter()
        .map(|&c| tree.node_unchecked(c).name.as_str())
        .collect();
    println!(
        "host-forced CRUs: {:?}   [paper: CRU1, CRU2 and CRU3 have to be deployed on the host]",
        forced
    );
    assert_eq!(forced, ["CRU1", "CRU2", "CRU3"]);
    table.write_csv(ctx.out_dir).unwrap();
}

pub(super) fn f6(ctx: &ExpCtx) {
    let (tree, costs) = fig2_tree();
    let prep = Prepared::new(&tree, &costs).unwrap();
    let g = prep.graph();
    println!(
        "assignment graph: {} nodes (S, {} gaps, T), {} coloured edges",
        g.dwg.num_nodes(),
        g.n_leaves - 1,
        g.n_edges()
    );
    let mut table = CsvTable::new(
        "f6_assignment_graph",
        &[
            "dual_edge",
            "crosses",
            "colour",
            "from_gap",
            "to_gap",
            "sigma",
            "beta",
        ],
    );
    for (i, meta) in g.edges.iter().enumerate() {
        table.row(&[
            format!("e{i}"),
            meta.tree_edge.to_string(),
            ["R", "Y", "B", "G"][meta.colour.index()].to_string(),
            meta.from_gap.to_string(),
            meta.to_gap.to_string(),
            meta.sigma.to_string(),
            meta.beta.to_string(),
        ]);
    }
    println!("{}", table.render_text());
    println!("conflicted tree edges <CRU1,CRU2>, <CRU1,CRU3> are absent — they can never be cut.");
    table.write_csv(ctx.out_dir).unwrap();
}

pub(super) fn f8(ctx: &ExpCtx) {
    let (tree, costs) = fig2_tree();
    let prep = Prepared::new(&tree, &costs).unwrap();
    use hsa_tree::figures::cru;
    let named: Vec<(TreeEdge, &str)> = vec![
        (TreeEdge::Parent(cru(2)), "h1"),
        (TreeEdge::Parent(cru(4)), "h1+h2"),
        (TreeEdge::Sensor(cru(9)), "h1+h2+h4+h9"),
        (TreeEdge::Sensor(cru(10)), "h10"),
        (TreeEdge::Parent(cru(3)), "0"),
        (TreeEdge::Parent(cru(6)), "h3"),
        (TreeEdge::Sensor(cru(13)), "h3+h6+h13"),
        (TreeEdge::Sensor(cru(7)), "h7"),
        (TreeEdge::Sensor(cru(8)), "h8"),
    ];
    let mut table = CsvTable::new("f8_sigma_labels", &["edge", "paper_label", "sigma_ticks"]);
    for (e, label) in named {
        table.row(&[
            e.to_string(),
            label.to_string(),
            prep.sigma.sigma(e).to_string(),
        ]);
    }
    println!("{}", table.render_text());
    println!("(h_k = 10+k ticks in the canonical cost model; every label matches symbolically —");
    println!(" asserted by hsa-tree's figure8_labels test)");
    table.write_csv(ctx.out_dir).unwrap();
}

pub(super) fn f9(ctx: &ExpCtx) {
    // The interleaved instance forces both expansion and joint branching.
    let (tree, costs) = random_instance(
        &RandomTreeParams {
            n_crus: 14,
            n_satellites: 2,
            placement: Placement::Interleaved,
            ..RandomTreeParams::default()
        },
        5,
    );
    let prep = Prepared::new(&tree, &costs).unwrap();
    println!(
        "instance: 14 CRUs, 2 satellites, interleaved placement (colours in {} bands)",
        prep.colouring.bands.len()
    );
    let cfg = PaperSsbConfig {
        record_trace: true,
        ..PaperSsbConfig::default()
    };
    let (sol, trace) = solve_with_trace(&prep, Lambda::HALF, &cfg).unwrap();
    let mut table = CsvTable::new("f9_expansion_events", &["event", "detail"]);
    for ev in &trace {
        let (kind, detail) = match ev {
            SsbEvent::Iteration {
                s,
                b,
                ssb,
                improved,
                removed,
            } => (
                "iteration",
                format!("S={s} B={b} SSB={ssb} improved={improved} removed={removed}"),
            ),
            SsbEvent::Expansion {
                colour,
                bands,
                composites,
            } => (
                "expansion",
                format!("colour={colour} bands={bands} composites={composites}"),
            ),
            SsbEvent::Branch { colour, combos } => {
                ("branch", format!("colour={colour} joint_combos={combos}"))
            }
        };
        table.row(&[kind.to_string(), detail]);
    }
    println!("{}", table.render_text());
    let brute = BruteForce::default().solve(&prep, Lambda::HALF).unwrap();
    println!(
        "result: delay {} (brute force agrees: {}); expansions={} composites={} branches={}",
        sol.delay(),
        brute.delay(),
        sol.stats.expansions,
        sol.stats.composites,
        sol.stats.branches
    );
    assert_eq!(sol.objective, brute.objective);
    table.write_csv(ctx.out_dir).unwrap();
}
