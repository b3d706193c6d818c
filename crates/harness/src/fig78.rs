//! Figures 7 and 8: EM3D cycles per iteration across networks, for the four
//! interface configurations. `nifdy-` is NIFDY's flow control only (the
//! library still reorders in software); `nifdy` additionally exploits
//! in-order delivery. "For networks that deliver packets in order (the 2D
//! mesh and the butterfly), the library intended for in-order delivery was
//! used for all runs."

use nifdy_traffic::{Em3dParams, NetworkKind, NicChoice, Scenario, SoftwareModel};

use crate::exec::{self, Jobs};
use crate::report::Table;
use crate::scale::Scale;

/// One EM3D measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Em3dPoint {
    /// Network label.
    pub network: &'static str,
    /// Interface configuration label.
    pub config: &'static str,
    /// Average cycles per EM3D iteration.
    pub cycles_per_iter: f64,
}

/// Runs one EM3D cell.
pub fn run_cell(
    kind: NetworkKind,
    choice: &NicChoice,
    inorder_library: bool,
    less_comm: bool,
    scale: Scale,
    seed: u64,
) -> f64 {
    // In-order networks always get the in-order library.
    let inorder = inorder_library || !kind.reorders();
    let sw = SoftwareModel::cm5_library(!inorder);
    let mut params = if less_comm {
        Em3dParams::less_communication(seed)
    } else {
        Em3dParams::more_communication(seed)
    };
    // Scale the graph volume with the run scale: communication traffic is
    // linear in n_nodes, so shapes are preserved.
    match scale {
        Scale::Full => params.iters = 3,
        Scale::Quick => {
            params.iters = 2;
            params.n_nodes /= 4;
        }
        Scale::Smoke => {
            params.iters = 1;
            params.n_nodes /= 10;
        }
    }
    let iters = params.iters;
    let mut driver = Scenario::new(kind)
        .seed(seed)
        .nic(choice.clone())
        .software(sw)
        .build_with(|sc| params.build(sc.nodes(), sc.sw()))
        .expect("figure cell builds");
    let finished = driver.run_until_quiet(scale.cycles(400_000_000));
    debug_assert!(finished, "EM3D did not drain");
    driver.fabric().now().as_u64() as f64 / f64::from(iters)
}

/// Runs a full EM3D figure (7 when `less_comm`, 8 otherwise), fanned
/// across `jobs` workers. The four cells of one network row share a derived
/// seed.
pub fn run(less_comm: bool, scale: Scale, seed: u64, jobs: Jobs) -> (Table, Vec<Em3dPoint>) {
    let figure = if less_comm { 7 } else { 8 };
    let experiment = if less_comm { "fig7" } else { "fig8" };
    let mut table = Table::new(
        format!(
            "Figure {figure}: EM3D cycles per iteration ({} communication)",
            if less_comm { "less" } else { "more" }
        ),
        vec![
            "network".into(),
            "none".into(),
            "buffers".into(),
            "nifdy-".into(),
            "nifdy".into(),
        ],
    );
    let mut cells = Vec::new();
    for (row, kind) in NetworkKind::ALL.into_iter().enumerate() {
        let preset = kind.nifdy_preset();
        let row_seed = exec::cell_seed(experiment, row as u64, seed);
        let cases: [(&'static str, NicChoice, bool); 4] = [
            ("none", NicChoice::Plain, false),
            ("buffers", NicChoice::BuffersOnly(preset.clone()), false),
            ("nifdy-", NicChoice::Nifdy(preset.clone()), false),
            ("nifdy", NicChoice::Nifdy(preset), true),
        ];
        for (label, choice, inorder) in cases {
            cells.push((kind, label, choice, inorder, row_seed));
        }
    }
    let points = exec::map(jobs, cells, |(kind, label, choice, inorder, s), _| {
        let cpi = run_cell(kind, &choice, inorder, less_comm, scale, s);
        Em3dPoint {
            network: kind.label(),
            config: label,
            cycles_per_iter: cpi,
        }
    });
    for (row, kind) in NetworkKind::ALL.into_iter().enumerate() {
        let mut cells = vec![kind.label().to_string()];
        for p in &points[row * 4..row * 4 + 4] {
            cells.push(format!("{:.0}", p.cycles_per_iter));
        }
        table.row(cells);
    }
    (table, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn em3d_runs_on_a_reordering_network() {
        let kind = NetworkKind::FatTree;
        let preset = kind.nifdy_preset();
        let without = run_cell(kind, &NicChoice::Plain, false, false, Scale::Smoke, 2);
        let with = run_cell(
            kind,
            &NicChoice::Nifdy(preset),
            true,
            false,
            Scale::Smoke,
            2,
        );
        assert!(without > 0.0 && with > 0.0);
        // In-order payload gain: NIFDY sends fewer packets, so it should not
        // be dramatically slower.
        assert!(
            with <= 1.5 * without,
            "nifdy {with} vs plain {without} looks wrong"
        );
    }

    #[test]
    fn in_order_networks_force_the_in_order_library() {
        // On the 2D mesh the `inorder_library` flag is irrelevant: both
        // cells must agree exactly (same library, same NIC).
        let kind = NetworkKind::Mesh2D;
        let a = run_cell(kind, &NicChoice::Plain, false, true, Scale::Smoke, 3);
        let b = run_cell(kind, &NicChoice::Plain, true, true, Scale::Smoke, 3);
        assert_eq!(a, b);
    }
}
