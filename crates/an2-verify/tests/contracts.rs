//! One table-driven property for every scheduler's declared contract.
//!
//! Each row of [`ROWS`] builds one scheduler configuration at the narrow
//! width (`W = 4`) and, if it runs there, at the wide one (`W = 16`).
//! Every row runs on the same random instances — requests, port masks and
//! queue observations — and every decision is judged by
//! `an2_verify::contract` against what the scheduler declares through
//! `Scheduler::contract` (k-grant PIM through its own `contract`), never
//! against anything the row says. The regimes:
//!
//! * every request matrix on n ≤ 3 ports, under unit and non-uniform
//!   weights;
//! * dense N = 4..=8 at uniformly drawn densities;
//! * sparse footprints on N = 9..=32: at most 10 requested columns, so
//!   the brute-force ⟨Q,M⟩ oracle runs on every instance;
//! * masked N ≤ 32 at uniformly drawn densities, up to 8 failed inputs
//!   and 8 failed outputs;
//! * masked wide N = 64, 256 and 1024 at `W = 16`, sparse edges, up to 12
//!   failed ports.
//!
//! The dense and sparse regimes mask every other trial too. Each trial
//! runs a fresh scheduler for two slots, so round-robin pointers and
//! random streams move between the slots it is judged on.

use an2_sched::check::{pair_violations, Contract, Violation};
use an2_sched::islip::RoundRobinMatchingN;
use an2_sched::kgrant::KGrantPim;
use an2_sched::maximum::MaximumMatchingN;
use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::stat::{ReservationTable, StatisticalMatcher};
use an2_sched::AcceptPolicy::{self, LowestIndex, Random, RoundRobin};
use an2_sched::WeightPolicy::{Lqf, Ocf};
use an2_sched::{
    InputPort, IterationLimit, MwmN, OutputPort, Pim, PimN, PortMaskN, RequestMatrix,
    RequestMatrixN, Scheduler, SerenadeN,
};
use an2_verify::contract::{contract_violations, Instance};

/// A scheduler under test, as the checker drives it.
enum Subject<const W: usize> {
    /// Any [`Scheduler`]: the decision is the matching it returns.
    Plain(Box<dyn Scheduler<W>>),
    /// SERENADE, whose merge is judged against the proposals it merged.
    Merging(SerenadeN<W>),
    /// k-grant PIM, whose assignment is judged by the pair-list rules. It
    /// has no port mask, so it runs every instance unmasked.
    KGrant(KGrantPim),
}

fn plain<const W: usize>(s: impl Scheduler<W> + 'static) -> Subject<W> {
    Subject::Plain(Box::new(s))
}

/// A fixed iteration budget of 1..=5, drawn from the row seed.
fn budget(seed: u64) -> usize {
    1 + (seed % 5) as usize
}

/// Statistical matching on random reservations within a 16-unit frame,
/// filled by `pim`.
fn stat_fill(n: usize, seed: u64, pim: Pim) -> Subject<4> {
    let mut table = ReservationTable::new(n, 16);
    let mut rng = Xoshiro256::seed_from(seed);
    for _ in 0..2 * n {
        // Over-budget attempts simply fail.
        let _ = table.set(rng.index(n), rng.index(n), rng.index(9));
    }
    plain(StatisticalMatcher::with_rounds(table, seed ^ 0xDEAD, budget(seed)).into_scheduler(pim))
}

/// PIM at width `W`, run to completion or on a budget drawn from the seed.
fn pim<const W: usize>(n: usize, seed: u64, complete: bool, accept: AcceptPolicy) -> Subject<W> {
    let limit = match complete {
        true => IterationLimit::ToCompletion,
        false => IterationLimit::Fixed(budget(seed)),
    };
    plain(PimN::<Xoshiro256, W>::with_options(n, seed, limit, accept))
}

/// k-grant PIM with k = 1..=4 drawn from the seed.
fn kgrant(n: usize, seed: u64, iterations: usize) -> Subject<4> {
    Subject::KGrant(KGrantPim::new(n, 1 + (seed % 4) as usize, iterations, seed))
}

/// One row: a scheduler configuration and the widths it runs at.
struct Row {
    name: &'static str,
    narrow: fn(usize, u64) -> Subject<4>,
    wide: Option<fn(usize, u64) -> Subject<16>>,
}

#[rustfmt::skip]
const ROWS: &[Row] = &[
    Row { name: "pim fixed random", narrow: |n, s| pim(n, s, false, Random), wide: Some(|n, s| pim(n, s, false, Random)) },
    Row { name: "pim fixed round-robin", narrow: |n, s| pim(n, s, false, RoundRobin), wide: None },
    Row { name: "pim fixed lowest", narrow: |n, s| pim(n, s, false, LowestIndex), wide: None },
    Row { name: "pim to completion random", narrow: |n, s| pim(n, s, true, Random), wide: Some(|n, s| pim(n, s, true, Random)) },
    Row { name: "pim to completion round-robin", narrow: |n, s| pim(n, s, true, RoundRobin), wide: None },
    Row { name: "pim to completion lowest", narrow: |n, s| pim(n, s, true, LowestIndex), wide: None },
    Row { name: "islip", narrow: |n, s| plain(RoundRobinMatchingN::islip(n, budget(s))), wide: Some(|n, s| plain(RoundRobinMatchingN::islip(n, budget(s)))) },
    Row { name: "rrm", narrow: |n, s| plain(RoundRobinMatchingN::rrm(n, budget(s))), wide: Some(|n, s| plain(RoundRobinMatchingN::rrm(n, budget(s)))) },
    Row { name: "maximum", narrow: |_, _| plain(MaximumMatchingN::new()), wide: Some(|_, _| plain(MaximumMatchingN::new())) },
    Row { name: "mwm-lqf", narrow: |n, _| plain(MwmN::new(n, Lqf)), wide: Some(|n, _| plain(MwmN::new(n, Lqf))) },
    Row { name: "mwm-ocf", narrow: |n, _| plain(MwmN::new(n, Ocf)), wide: Some(|n, _| plain(MwmN::new(n, Ocf))) },
    Row { name: "serenade-lqf", narrow: |n, s| Subject::Merging(SerenadeN::with_policy(n, s, Lqf)), wide: Some(|n, s| Subject::Merging(SerenadeN::with_policy(n, s, Lqf))) },
    Row { name: "serenade-ocf", narrow: |n, s| Subject::Merging(SerenadeN::with_policy(n, s, Ocf)), wide: None },
    Row { name: "stat+pim(4)", narrow: |n, s| stat_fill(n, s, Pim::new(n, s ^ 0xF111)), wide: None },
    Row { name: "stat+pim to completion", narrow: |n, s| stat_fill(n, s, Pim::with_options(n, s ^ 0xF111, IterationLimit::ToCompletion, Random)), wide: None },
    Row { name: "kgrant", narrow: |n, s| kgrant(n, s, budget(s)), wide: None },
    Row { name: "kgrant n iterations", narrow: |n, s| kgrant(n, s, n), wide: None },
];

impl<const W: usize> Subject<W> {
    fn set_port_mask(&mut self, mask: PortMaskN<W>) {
        match self {
            Subject::Plain(s) => s.set_port_mask(mask),
            Subject::Merging(s) => s.set_port_mask(mask),
            Subject::KGrant(_) => {}
        }
    }

    /// Schedules `inst` as slot `slot` and appends what breaks the
    /// declared contract.
    fn check_slot(&mut self, slot: u64, inst: &Instance<'_, W>, out: &mut Vec<Violation>) {
        match self {
            Subject::Plain(s) => {
                inst.observe(s.as_mut());
                let m = s.schedule(inst.requests);
                contract_violations(slot, s.contract(), inst, &m, None, out);
            }
            Subject::Merging(s) => {
                inst.observe(s);
                let (a, b, merged) = s.schedule_with_proposals(inst.requests);
                contract_violations(slot, s.contract(), inst, &merged, Some([&a, &b]), out);
            }
            Subject::KGrant(s) => {
                let n = inst.requests.n();
                let reqs = RequestMatrix::from_pairs(
                    n,
                    inst.requests.pairs().map(|(i, j)| (i.index(), j.index())),
                );
                let mm = s.schedule(&reqs);
                assert_eq!(mm.len(), mm.pairs().count(), "len() counts the pairs");
                pair_violations(slot, &reqs, mm.pairs(), s.contract(), None, out);
            }
        }
    }

    fn masked(&self) -> bool {
        !matches!(self, Subject::KGrant(_))
    }
}

/// One trial: a radix, a port mask, the requests of each slot and the
/// queue weights, all shared by every row.
struct Trial<const W: usize> {
    n: usize,
    seed: u64,
    mask: Option<PortMaskN<W>>,
    slots: Vec<RequestMatrixN<W>>,
    /// Weights are drawn from 1..=`max_weight` (1: unit weights).
    max_weight: u32,
}

impl<const W: usize> Trial<W> {
    /// The queue weight of pair `(i, j)`: a SplitMix64 hash of the pair
    /// under the trial seed, so every slot and every row sees the same Q.
    fn weight(&self, i: usize, j: usize) -> u32 {
        let mut z = self.seed ^ ((i as u64) << 32 | j as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        1 + ((z ^ (z >> 31)) % u64::from(self.max_weight)) as u32
    }
}

/// Runs every row that has a constructor at this width on every trial
/// and fails on the first broken contract.
fn check_rows<const W: usize>(
    regime: &str,
    trials: &[Trial<W>],
    build: impl Fn(&Row) -> Option<fn(usize, u64) -> Subject<W>>,
) {
    let mut ran = 0;
    for row in ROWS {
        let Some(make) = build(row) else { continue };
        ran += 1;
        for (t, trial) in trials.iter().enumerate() {
            let mut s = make(trial.n, trial.seed);
            let mask = trial.mask.filter(|_| s.masked());
            if let Some(mask) = mask {
                s.set_port_mask(mask);
            }
            let weight = |i, j| trial.weight(i, j);
            let mut out = Vec::new();
            for (slot, requests) in trial.slots.iter().enumerate() {
                let inst = Instance {
                    requests,
                    mask: mask.as_ref(),
                    weight: &weight,
                };
                s.check_slot(slot as u64, &inst, &mut out);
                assert!(
                    out.is_empty(),
                    "{regime}, row {:?}, trial {t} (n = {}, seed {:#x}, mask {:?}): {}",
                    row.name,
                    trial.n,
                    trial.seed,
                    mask,
                    out[0]
                );
            }
        }
    }
    assert!(ran > 0, "{regime}: no row runs at this width");
}

/// A mask failing up to `max_fails` random inputs and as many outputs.
fn random_mask<const W: usize>(n: usize, max_fails: usize, rng: &mut Xoshiro256) -> PortMaskN<W> {
    let mut mask = PortMaskN::all(n);
    for _ in 0..rng.index(max_fails + 1) {
        mask.fail_input(rng.index(n));
    }
    for _ in 0..rng.index(max_fails + 1) {
        mask.fail_output(rng.index(n));
    }
    mask
}

fn trial<const W: usize>(
    n: usize,
    rng: &mut Xoshiro256,
    mask: Option<PortMaskN<W>>,
    max_weight: u32,
    mut requests: impl FnMut(&mut Xoshiro256) -> RequestMatrixN<W>,
) -> Trial<W> {
    let slots = (0..2).map(|_| requests(rng)).collect();
    Trial {
        n,
        seed: rng.next_u64(),
        mask,
        slots,
        max_weight,
    }
}

#[test]
fn every_tiny_request_matrix_keeps_every_contract() {
    let mut trials = Vec::new();
    for n in 1usize..=3 {
        for pattern in 0u32..1 << (n * n) {
            let reqs = RequestMatrix::from_fn(n, |i, j| pattern & (1 << (i * n + j)) != 0);
            for max_weight in [1, 9] {
                trials.push(Trial {
                    n,
                    seed: u64::from(pattern) << 8 | n as u64,
                    mask: None,
                    slots: vec![reqs.clone()],
                    max_weight,
                });
            }
        }
    }
    check_rows("every n <= 3 matrix", &trials, |row| Some(row.narrow));
}

#[test]
fn dense_small_switches_keep_every_contract() {
    let mut rng = Xoshiro256::seed_from(0x3A11_1992);
    let mut trials = Vec::new();
    for n in 4usize..=8 {
        for t in 0..250 {
            let mask = (t % 2 == 1).then(|| random_mask(n, 2, &mut rng));
            let density = rng.uniform_f64();
            trials.push(trial(n, &mut rng, mask, 16, |rng| {
                RequestMatrix::random(n, density, rng)
            }));
        }
    }
    check_rows("dense N = 4..=8", &trials, |row| Some(row.narrow));
}

#[test]
fn sparse_footprints_keep_every_contract() {
    let mut rng = Xoshiro256::seed_from(0x3A11_0032);
    let mut trials = Vec::new();
    for t in 0..1000 {
        let n = 9 + rng.index(24);
        let cols: Vec<usize> = (0..1 + rng.index(10)).map(|_| rng.index(n)).collect();
        let mask = (t % 2 == 1).then(|| random_mask(n, 4, &mut rng));
        trials.push(trial(n, &mut rng, mask, 100, |rng| {
            RequestMatrix::from_fn(n, |_, j| cols.contains(&j) && rng.bernoulli(0.35))
        }));
    }
    check_rows("sparse footprint N <= 32", &trials, |row| Some(row.narrow));
}

#[test]
fn masked_switches_up_to_32_keep_every_contract() {
    let mut rng = Xoshiro256::seed_from(0x0BAD_9087);
    let mut trials = Vec::new();
    for _ in 0..256 {
        let n = 1 + rng.index(32);
        let mask = Some(random_mask(n, 8, &mut rng));
        let density = rng.uniform_f64();
        trials.push(trial(n, &mut rng, mask, 31, |rng| {
            RequestMatrix::random(n, density, rng)
        }));
    }
    check_rows("masked N <= 32", &trials, |row| Some(row.narrow));
}

#[test]
fn masked_wide_switches_keep_every_contract() {
    let mut rng = Xoshiro256::seed_from(0x0BAD_1024);
    let mut trials = Vec::new();
    for n in [64usize, 256, 1024] {
        for _ in 0..32 {
            let mask = Some(random_mask(n, 6, &mut rng));
            trials.push(trial(n, &mut rng, mask, 31, |rng| {
                let mut reqs = RequestMatrixN::<16>::new(n);
                for _ in 0..1 + rng.index(160) {
                    reqs.set(InputPort::new(rng.index(n)), OutputPort::new(rng.index(n)));
                }
                reqs
            }));
        }
    }
    check_rows("masked wide N = 64/256/1024", &trials, |row| row.wide);
}

/// What each row declares, pinned: a scheduler that quietly drops a
/// promise would otherwise just be checked against less.
#[test]
fn every_row_declares_its_guarantees() {
    let declared = |row: &Row| match (row.narrow)(8, 3) {
        Subject::Plain(s) => s.contract(),
        Subject::Merging(s) => s.contract(),
        Subject::KGrant(s) => s.contract(),
    };
    for row in ROWS {
        let name = row.name;
        let mwm = name.starts_with("mwm");
        let want = Contract {
            maximal: mwm
                || name == "maximum"
                || name.contains("completion")
                || name.contains("n iterations"),
            maximum_cardinality: name == "maximum",
            maximum_weight: mwm,
            merges_proposals: name.starts_with("serenade"),
            // k = 1 + seed % 4 at seed 3.
            output_capacity: if name.starts_with("kgrant") { 4 } else { 1 },
        };
        assert_eq!(declared(row), want, "{name}");
    }
}
