use byzclock_mcheck::clock_sync::{FourClockModel, TopLayerModel};
use byzclock_mcheck::engine::check;
use byzclock_mcheck::two_clock::TwoClockModel;

fn show(r: &byzclock_mcheck::CheckReport) {
    println!(
        "{}: complete={} states={} edges={} synced={} persistent={} transient={} max_rank={:?} beats={:?} bound={} violation={:?}",
        r.model, r.complete, r.states, r.edges, r.synced_states, r.persistent_states,
        r.transient_synced, r.max_rank, r.max_rank_beats, r.bound_beats,
        r.violation.as_ref().map(|v| (v.kind, v.detail.clone()))
    );
    if let Some(v) = &r.violation {
        println!("trace:\n{}", v.trace);
    }
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let cap: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1 << 22);
    if which == "two" || which == "all" {
        show(&check(&TwoClockModel::honest(4, 1), cap));
        show(&check(&TwoClockModel::broken(4, 1), cap));
    }
    if which == "four" || which == "all" {
        show(&check(&FourClockModel::new(), cap));
    }
    if which == "top" || which == "all" {
        show(&check(&TopLayerModel::new(), cap));
    }
    if which == "bd1" || which == "bd" || which == "all" {
        show(&check(&byzclock_mcheck::BdModel::new(1), cap));
    }
    if which == "bd2" || which == "bd" || which == "all" {
        show(&check(&byzclock_mcheck::BdModel::new(2), cap));
    }
}
