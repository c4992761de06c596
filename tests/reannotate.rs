//! In-place delay re-annotation: `CircuitGraph::reannotate_gate` with a
//! gate's scaled IOPATHs must leave exactly the graph a full
//! `CircuitGraph::build` gives for the equally scaled SDF.

use gatspi_graph::{CircuitGraph, GraphOptions};
use gatspi_netlist::GateId;
use gatspi_sdf::{DelayTriple, SdfFile};
use gatspi_workloads::circuits::mac_datapath;
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};

/// `sdf` with the delays of `instance`'s own cells multiplied by `factor`.
fn scaled(sdf: &SdfFile, instance: &str, factor: f64) -> SdfFile {
    let scale = |t: &mut DelayTriple| {
        for v in [&mut t.min, &mut t.typ, &mut t.max] {
            *v = v.map(|x| (x * factor).round());
        }
    };
    let mut out = sdf.clone();
    for cell in &mut out.cells {
        if cell.instance.as_deref() == Some(instance) {
            for p in &mut cell.iopaths {
                scale(&mut p.rise);
                scale(&mut p.fall);
            }
        }
    }
    out
}

#[test]
fn reannotate_every_gate_matches_rebuild() {
    let netlist = mac_datapath(4, 2);
    let sdf = attach_sdf(
        &netlist,
        &SdfGenConfig {
            cond_probability: 0.5,
            interconnect_probability: 0.5,
            ..SdfGenConfig::default()
        },
    );
    let conds = sdf
        .cells
        .iter()
        .flat_map(|c| &c.iopaths)
        .filter(|p| p.cond.is_some())
        .count();
    assert!(conds > 0 && !sdf.interconnects.is_empty());

    let opts = GraphOptions::default();
    let original = CircuitGraph::build(&netlist, Some(&sdf), &opts).unwrap();
    let mut graph = original.clone();
    let mut changed = 0;
    for g in 0..netlist.gate_count() {
        let gate = netlist.gate(GateId::from_index(g));
        let celltype = netlist.library().cell(gate.cell()).name();
        let slowed = scaled(&sdf, gate.name(), 3.0);
        let rebuilt = CircuitGraph::build(&netlist, Some(&slowed), &opts).unwrap();
        let index = slowed.cell_index();
        graph
            .reannotate_gate(&netlist, g, index.iopaths_for(celltype, gate.name()), &opts)
            .unwrap();
        assert!(graph == rebuilt, "gate {g} (`{}`)", gate.name());
        changed += usize::from(graph != original);

        // Re-annotating with the unscaled IOPATHs restores the gate.
        let index = sdf.cell_index();
        graph
            .reannotate_gate(&netlist, g, index.iopaths_for(celltype, gate.name()), &opts)
            .unwrap();
        assert!(graph == original, "gate {g} not restored");
    }
    assert_eq!(changed, netlist.gate_count(), "every gate's delays scale");
}

#[test]
fn reannotate_rejects_bad_bindings_and_leaves_graph_unchanged() {
    let netlist = mac_datapath(4, 1);
    let sdf = attach_sdf(&netlist, &SdfGenConfig::default());
    let opts = GraphOptions::default();
    let original = CircuitGraph::build(&netlist, Some(&sdf), &opts).unwrap();
    let mut graph = original.clone();

    let mut bad = sdf.cells[0].iopaths.clone();
    bad[0].input = "NOPE".into();
    assert!(matches!(
        graph.reannotate_gate(&netlist, 0, &bad, &opts),
        Err(gatspi_graph::GraphError::SdfBinding { .. })
    ));
    assert!(matches!(
        graph.reannotate_gate(&netlist, netlist.gate_count(), &sdf.cells[0].iopaths, &opts),
        Err(gatspi_graph::GraphError::SdfBinding { .. })
    ));
    assert!(graph == original);
}
