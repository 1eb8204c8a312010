//! Statistical matching — §5 and Appendix C.
//!
//! Statistical matching delivers each input–output pair a specified share
//! of link throughput by *weighting the dice* of parallel iterative
//! matching. The allocatable bandwidth of each link is divided into `X`
//! discrete units; `X[i][j]` units are allocated to traffic from input `i`
//! to output `j`. Each slot:
//!
//! 1. Each output grants one input with probability proportional to its
//!    reservation (`X[i][j]/X`); with the residual probability it "grants
//!    to its imaginary input", i.e. stays silent.
//! 2. Each granted input reinterprets the grant as a *binomially
//!    distributed* number of virtual grants — the count it would have seen
//!    had each of the `X[i][j]` units been granted independently with
//!    probability `1/X` — and likewise draws virtual grants from an
//!    imaginary output covering its unreserved units. It then accepts one
//!    virtual grant uniformly at random (accepting the imaginary output
//!    means staying unmatched).
//!
//! One round matches a pair with probability `(X[i][j]/X)·(1 − 1/e)` for
//! large `X`; an independent second round whose non-conflicting matches are
//! kept raises the usable reserved fraction to
//! `(1 − 1/e)(1 + 1/e²) ≈ 0.72` of each link. Slots left unmatched are
//! meant to be filled by ordinary PIM ([`StatisticalMatcher::into_scheduler`]).

use crate::check::Contract;
use crate::matching::Matching;
use crate::pim::Pim;
use crate::port::{InputPort, OutputPort};
use crate::requests::RequestMatrix;
use crate::rng::{SelectRng, Xoshiro256};
use crate::scheduler::{PortMask, Scheduler};
use std::fmt;

/// The fraction of link bandwidth statistical matching can reserve with two
/// rounds: `(1 − 1/e)(1 + 1/e²) ≈ 0.7176` (Appendix C).
pub fn reservable_fraction() -> f64 {
    let e = std::f64::consts::E;
    (1.0 - 1.0 / e) * (1.0 + 1.0 / (e * e))
}

/// Error returned when a reservation would over-commit a link's units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnitsExceeded {
    /// `true` if the violated budget is an input's; `false` for an output's.
    pub on_input: bool,
    /// Index of the violated port.
    pub port: usize,
    /// Units already allocated on that port.
    pub allocated: usize,
    /// Units the request would have brought it to.
    pub requested_total: usize,
    /// The per-link unit budget `X`.
    pub budget: usize,
}

impl fmt::Display for UnitsExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = if self.on_input { "input" } else { "output" };
        write!(
            f,
            "{side} {} would carry {} of {} bandwidth units (currently {})",
            self.port, self.requested_total, self.budget, self.allocated
        )
    }
}

impl std::error::Error for UnitsExceeded {}

/// The `X[i][j]` bandwidth-unit allocation table of §5.2.
///
/// Row sums and column sums are kept `<= X` (the per-link unit budget).
/// Note that units are an *allocation target*, not an admission guarantee:
/// statistical matching delivers about 63–72% of the corresponding
/// throughput (see the module docs), so callers wanting a delivered rate
/// should size reservations accordingly.
///
/// # Examples
///
/// ```
/// use an2_sched::stat::ReservationTable;
/// let mut t = ReservationTable::new(4, 16);
/// t.set(0, 1, 8)?;
/// t.set(0, 2, 8)?;
/// assert_eq!(t.input_allocated(0), 16);
/// assert!(t.set(0, 3, 1).is_err()); // input 0's budget is exhausted
/// # Ok::<(), an2_sched::stat::UnitsExceeded>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReservationTable {
    n: usize,
    x: usize,
    units: Vec<Vec<usize>>,
    input_total: Vec<usize>,
    output_total: Vec<usize>,
}

impl ReservationTable {
    /// Creates an empty table for an `n`×`n` switch with `x` bandwidth
    /// units per link.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > MAX_PORTS`, or `x == 0`.
    pub fn new(n: usize, x: usize) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(n <= crate::MAX_PORTS, "switch size {n} out of range");
        assert!(x > 0, "unit budget must be at least 1");
        Self {
            n,
            x,
            units: vec![vec![0; n]; n],
            input_total: vec![0; n],
            output_total: vec![0; n],
        }
    }

    /// Builds a table from a function giving `X[i][j]`.
    ///
    /// # Panics
    ///
    /// Panics if any row or column total exceeds `x`, or on the size limits
    /// of [`new`](Self::new).
    pub fn from_fn(n: usize, x: usize, mut units: impl FnMut(usize, usize) -> usize) -> Self {
        let mut t = Self::new(n, x);
        for i in 0..n {
            for j in 0..n {
                t.set(i, j, units(i, j))
                    .expect("from_fn units exceed the per-link budget");
            }
        }
        t
    }

    /// The switch radix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The per-link unit budget `X`.
    pub fn x(&self) -> usize {
        self.x
    }

    /// Units allocated from input `i` to output `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is `>= n`.
    pub fn units(&self, i: usize, j: usize) -> usize {
        assert!(i < self.n && j < self.n, "pair ({i},{j}) outside switch");
        self.units[i][j]
    }

    /// Total units allocated on input link `i`.
    pub fn input_allocated(&self, i: usize) -> usize {
        assert!(i < self.n, "input {i} outside switch");
        self.input_total[i]
    }

    /// Total units allocated on output link `j`.
    pub fn output_allocated(&self, j: usize) -> usize {
        assert!(j < self.n, "output {j} outside switch");
        self.output_total[j]
    }

    /// Sets the allocation for pair `(i, j)` to `units`, replacing the
    /// previous value. Only this pair's input and output budgets are
    /// touched — the locality that makes statistical matching suited to
    /// "rapidly changing needs for guaranteed bandwidth" (§5).
    ///
    /// # Errors
    ///
    /// Returns [`UnitsExceeded`] (leaving the table unchanged) if the new
    /// value would push the input's or output's total above `X`.
    ///
    /// # Panics
    ///
    /// Panics if either index is `>= n`.
    // an2-lint: allow(panic-freedom) i, j < n asserted (documented "# Panics" contract) bound every table index
    // an2-lint: allow(overflow-discipline) unit totals are rejected above the X budget before being stored, so sums stay <= 2*X
    pub fn set(&mut self, i: usize, j: usize, units: usize) -> Result<(), UnitsExceeded> {
        assert!(i < self.n && j < self.n, "pair ({i},{j}) outside switch");
        let old = self.units[i][j];
        let new_in = self.input_total[i] - old + units;
        if new_in > self.x {
            return Err(UnitsExceeded {
                on_input: true,
                port: i,
                allocated: self.input_total[i],
                requested_total: new_in,
                budget: self.x,
            });
        }
        let new_out = self.output_total[j] - old + units;
        if new_out > self.x {
            return Err(UnitsExceeded {
                on_input: false,
                port: j,
                allocated: self.output_total[j],
                requested_total: new_out,
                budget: self.x,
            });
        }
        self.units[i][j] = units;
        self.input_total[i] = new_in;
        self.output_total[j] = new_out;
        Ok(())
    }

    /// Unallocated units on input `i` (the `X_{i,0}` of Appendix C).
    pub fn input_slack(&self, i: usize) -> usize {
        self.x - self.input_allocated(i)
    }

    /// Unallocated units on output `j` (the `X_{0,j}` of Appendix C).
    pub fn output_slack(&self, j: usize) -> usize {
        self.x - self.output_allocated(j)
    }
}

/// Conditional virtual-grant count distribution for one reservation size.
///
/// `cdf[m]` = P{virtual grants <= m | conditions of the sampling context};
/// index 0 corresponds to zero virtual grants.
#[derive(Clone, Debug)]
struct VirtualGrantCdf {
    cdf: Vec<f64>,
}

impl VirtualGrantCdf {
    /// Distribution of `m_{i,j}` *given that output j granted to input i*
    /// (Appendix C step 2a): `P{m} = Binom(n, 1/X; m) · X/n` for `m >= 1`,
    /// with the remainder on `m = 0`.
    fn conditional(n_units: usize, x: usize) -> Self {
        debug_assert!(n_units >= 1);
        let pmf = binomial_pmf(n_units, x);
        let scale = x as f64 / n_units as f64;
        let mut cdf = Vec::with_capacity(n_units + 1);
        let mut p0 = 1.0;
        for &p in &pmf[1..] {
            p0 -= p * scale;
        }
        let mut acc = p0.max(0.0);
        cdf.push(acc);
        for &p in &pmf[1..] {
            acc += p * scale;
            cdf.push(acc.min(1.0));
        }
        Self { cdf }
    }

    /// Unconditional binomial distribution of imaginary-output virtual
    /// grants (`m_{i,0} ~ Binom(X_{i,0}, 1/X)`).
    fn unconditional(n_units: usize, x: usize) -> Self {
        let pmf = binomial_pmf(n_units, x);
        let mut acc = 0.0;
        let cdf = pmf
            .iter()
            .map(|&p| {
                acc += p;
                acc.min(1.0)
            })
            .collect();
        Self { cdf }
    }

    fn sample(&self, rng: &mut impl SelectRng) -> usize {
        let u = rng.uniform_f64();
        // First index whose cumulative probability exceeds u.
        self.cdf.partition_point(|&c| c <= u)
    }
}

/// `Binom(n, 1/x)` pmf for `m = 0..=n`, computed by stable recurrence.
fn binomial_pmf(n: usize, x: usize) -> Vec<f64> {
    let p = 1.0 / x as f64;
    let q = 1.0 - p;
    let mut pmf = Vec::with_capacity(n + 1);
    // q^n without pow-accumulated drift for moderate n.
    let mut cur = q.powi(n as i32);
    pmf.push(cur);
    for m in 0..n {
        cur *= (n - m) as f64 / (m + 1) as f64 * (p / q);
        pmf.push(cur);
    }
    pmf
}

/// The statistical matching scheduler of §5.2 / Appendix C.
///
/// Produces, for each time slot, a matching in which pair `(i, j)` appears
/// with probability approximately `(X[i][j]/X) · 0.63` (one round) or
/// `(X[i][j]/X) · 0.72` (two rounds, the default).
///
/// # Examples
///
/// ```
/// use an2_sched::stat::{ReservationTable, StatisticalMatcher};
/// // Allocate each input's full budget to one output (a permutation).
/// let table = ReservationTable::from_fn(4, 16, |i, j| if j == (i + 1) % 4 { 16 } else { 0 });
/// let mut sm = StatisticalMatcher::new(table, 7);
/// let m = sm.next_match();
/// // Only reserved pairs can ever be matched.
/// for (i, j) in m.pairs() {
///     assert_eq!(j.index(), (i.index() + 1) % 4);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct StatisticalMatcher<R: SelectRng = Xoshiro256> {
    table: ReservationTable,
    rounds: usize,
    output_rng: Vec<R>,
    input_rng: Vec<R>,
    /// Cumulative unit counts per output for the grant draw: entry
    /// `(cum_units, input)`.
    grant_cum: Vec<Vec<(usize, usize)>>,
    /// Conditional virtual-grant CDFs per (input, output) with units > 0.
    cond_cdf: Vec<Vec<Option<VirtualGrantCdf>>>,
    /// Imaginary-output CDFs per input (None when slack is 0).
    imag_cdf: Vec<Option<VirtualGrantCdf>>,
    /// Scratch: `grants_to[i]` = outputs granting input `i` this round;
    /// inner vectors keep their capacity across slots.
    grants_to: Vec<Vec<usize>>,
    /// Scratch: per-input `(output, virtual-grant count)` list.
    virtuals: Vec<(usize, usize)>,
}

impl StatisticalMatcher<Xoshiro256> {
    /// Creates a two-round matcher (the configuration Appendix C analyzes)
    /// seeded from `seed`.
    pub fn new(table: ReservationTable, seed: u64) -> Self {
        Self::with_rounds(table, seed, 2)
    }

    /// Creates a matcher running `rounds` independent rounds per slot.
    ///
    /// "Additional iterations yield insignificant throughput improvements"
    /// beyond two (§5.2), but the ablation bench sweeps this.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn with_rounds(table: ReservationTable, seed: u64, rounds: usize) -> Self {
        assert!(rounds > 0, "at least one round is required");
        let n = table.n();
        let root = Xoshiro256::seed_from(seed);
        let output_rng = (0..n).map(|j| root.split(j as u64)).collect();
        let input_rng = (0..n).map(|i| root.split(0x2_0000 + i as u64)).collect();
        let mut sm = Self {
            table,
            rounds,
            output_rng,
            input_rng,
            grant_cum: Vec::new(),
            cond_cdf: Vec::new(),
            imag_cdf: Vec::new(),
            grants_to: vec![Vec::new(); n],
            virtuals: Vec::with_capacity(n),
        };
        sm.rebuild_caches();
        sm
    }
}

impl<R: SelectRng> StatisticalMatcher<R> {
    /// The reservation table in force.
    pub fn table(&self) -> &ReservationTable {
        &self.table
    }

    /// The number of rounds per slot.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Changes the allocation for pair `(i, j)` — the cheap-update path the
    /// paper contrasts with recomputing a Slepian–Duguid schedule.
    ///
    /// # Errors
    ///
    /// Returns [`UnitsExceeded`] and leaves the matcher unchanged on
    /// over-commitment.
    ///
    /// # Panics
    ///
    /// Panics if either index is `>= n`.
    pub fn set_units(&mut self, i: usize, j: usize, units: usize) -> Result<(), UnitsExceeded> {
        self.table.set(i, j, units)?;
        // Only input i's and output j's cached distributions change.
        self.rebuild_output(j);
        self.rebuild_input(i);
        Ok(())
    }

    fn rebuild_caches(&mut self) {
        let n = self.table.n();
        self.grant_cum = vec![Vec::new(); n];
        self.cond_cdf = (0..n).map(|_| vec![None; n]).collect();
        self.imag_cdf = vec![None; n];
        for j in 0..n {
            self.rebuild_output(j);
        }
        for i in 0..n {
            self.rebuild_input(i);
        }
    }

    fn rebuild_output(&mut self, j: usize) {
        let n = self.table.n();
        let mut cum = 0usize;
        let mut v = Vec::new();
        for i in 0..n {
            let u = self.table.units(i, j);
            if u > 0 {
                cum += u;
                v.push((cum, i));
            }
        }
        self.grant_cum[j] = v;
        let x = self.table.x();
        for i in 0..n {
            let u = self.table.units(i, j);
            self.cond_cdf[i][j] = (u > 0).then(|| VirtualGrantCdf::conditional(u, x));
        }
    }

    fn rebuild_input(&mut self, i: usize) {
        let x = self.table.x();
        let slack = self.table.input_slack(i);
        self.imag_cdf[i] = (slack > 0).then(|| VirtualGrantCdf::unconditional(slack, x));
        for j in 0..self.table.n() {
            let u = self.table.units(i, j);
            self.cond_cdf[i][j] = (u > 0).then(|| VirtualGrantCdf::conditional(u, x));
        }
    }

    /// Runs the configured number of rounds and returns the reserved-traffic
    /// matching for one time slot.
    // an2-lint: hot
    // an2-lint: allow(panic-freedom) pair() cannot fail: both endpoints are checked unmatched on the line above
    pub fn next_match(&mut self) -> Matching {
        let n = self.table.n();
        let mut matching = Matching::new(n);
        for _ in 0..self.rounds {
            let round = self.one_round();
            // Keep a round-k match only if both endpoints are still
            // unmatched (Appendix C: "a match is added by the second
            // iteration ... provided that neither was matched on the first
            // round"). Conflicting matches are discarded.
            for (i, j) in round.pairs() {
                if !matching.input_matched(i) && !matching.output_matched(j) {
                    matching.pair(i, j).expect("both endpoints checked free");
                }
            }
        }
        matching
    }

    /// One independent grant/accept round.
    // an2-lint: hot
    // an2-lint: allow(panic-freedom) j, i < n by the loop bounds; cdf indices come from partition_point over an n-sized table
    // an2-lint: allow(overflow-discipline) cumulative-unit sums are bounded by the X budget per port
    fn one_round(&mut self) -> Matching {
        let n = self.table.n();
        let x = self.table.x();
        // Step 1: grants. grants_to[i] = outputs granting input i.
        for g in &mut self.grants_to {
            g.clear();
        }
        for j in 0..n {
            // Draw a unit in 0..X; units beyond the allocated prefix belong
            // to the imaginary input (no grant).
            let u = self.output_rng[j].index(x);
            let cum = &self.grant_cum[j];
            let k = cum.partition_point(|&(c, _)| c <= u);
            if k < cum.len() {
                // an2-lint: allow(alloc-in-hot-path) scratch Vec sized n at build; a row holds at most n grants so capacity is never exceeded after warm-up
                self.grants_to[cum[k].1].push(j);
            }
        }
        // Step 2: virtual-grant reinterpretation and accept.
        let mut m = Matching::new(n);
        for i in 0..n {
            self.virtuals.clear(); // (output, count)
            let mut total = 0usize;
            for &j in &self.grants_to[i] {
                let cdf = self.cond_cdf[i][j]
                    .as_ref()
                    .expect("grant implies a positive reservation");
                let count = cdf.sample(&mut self.input_rng[i]);
                if count > 0 {
                    // an2-lint: allow(alloc-in-hot-path) scratch Vec with capacity n reserved at build; at most n virtual grants per input
                    self.virtuals.push((j, count));
                    total += count;
                }
            }
            // Imaginary output covering unreserved units.
            let imag = match &self.imag_cdf[i] {
                Some(cdf) => cdf.sample(&mut self.input_rng[i]),
                None => 0,
            };
            let grand_total = total + imag;
            if total == 0 || grand_total == 0 {
                continue;
            }
            // Accept one virtual grant uniformly; imaginary picks = no match.
            let pick = self.input_rng[i].index(grand_total);
            if pick >= total {
                continue; // accepted the imaginary output
            }
            let mut acc = 0usize;
            for &(j, count) in &self.virtuals {
                acc += count;
                if pick < acc {
                    m.pair(InputPort::new(i), OutputPort::new(j))
                        .expect("one grant per output, one accept per input");
                    break;
                }
            }
        }
        m
    }

    /// Wraps this matcher and a PIM instance into a [`Scheduler`] that fills
    /// slots left by statistical matching with datagram traffic: reserved
    /// pairs win their slots only when they have a queued cell; all
    /// remaining request pairs compete under ordinary PIM.
    pub fn into_scheduler(self, pim: Pim) -> StatWithPimFill<R> {
        assert_eq!(
            pim.n(),
            self.table.n(),
            "PIM size must match the reservation table"
        );
        let mask = PortMask::all(pim.n());
        StatWithPimFill {
            stat: self,
            pim,
            mask,
        }
    }
}

/// Statistical matching for reserved flows with PIM filling unused capacity.
///
/// Per §5.2: "Any slot not used by statistical matching can be filled with
/// other traffic by parallel iterative matching." A reserved pair keeps its
/// statistical slot only if it actually has a queued cell; otherwise the
/// ports return to the datagram pool for this slot.
#[derive(Clone, Debug)]
pub struct StatWithPimFill<R: SelectRng = Xoshiro256> {
    stat: StatisticalMatcher<R>,
    pim: Pim,
    /// Port health mask; reserved pairs touching a failed port lose their
    /// statistical slot (the PIM fill carries the same mask).
    mask: PortMask,
}

impl<R: SelectRng> StatWithPimFill<R> {
    /// The underlying statistical matcher.
    pub fn stat(&self) -> &StatisticalMatcher<R> {
        &self.stat
    }

    /// Mutable access to the underlying statistical matcher (e.g. to adjust
    /// allocations between slots).
    pub fn stat_mut(&mut self) -> &mut StatisticalMatcher<R> {
        &mut self.stat
    }
}

impl<R: SelectRng> Scheduler for StatWithPimFill<R> {
    // an2-lint: allow(panic-freedom) pair() is given a subset of a legal matching over healthy ports
    fn schedule(&mut self, requests: &RequestMatrix) -> Matching {
        let reserved = self.stat.next_match();
        // A reserved pair holds its slot only when a cell is queued for it —
        // and only while both of its ports are healthy. The statistical
        // matcher's own draws are deliberately untouched by the mask: it
        // consumes the same randomness every slot regardless of fabric
        // health, so recovery leaves its stream exactly where an unfaulted
        // run would have it.
        let mut initial = Matching::new(reserved.n());
        for (i, j) in reserved.pairs() {
            let healthy = self.mask.input_active(i.index()) && self.mask.output_active(j.index());
            if healthy && requests.has(i, j) {
                initial.pair(i, j).expect("subset of a legal matching");
            }
        }
        self.pim.schedule_from(requests, initial)
    }

    fn name(&self) -> &'static str {
        "stat+pim"
    }

    fn contract(&self) -> Contract {
        // PIM fills around the reserved pairs it is handed, so the result
        // keeps whatever PIM promises on its own.
        self.pim.contract()
    }

    // an2-lint: allow(panic-freedom) a mis-sized mask is a harness bug, not degraded traffic; the Scheduler trait documents the panic
    fn set_port_mask(&mut self, mask: PortMask) {
        assert_eq!(
            mask.n(),
            self.pim.n(),
            "mask size {} does not match scheduler size {}",
            mask.n(),
            self.pim.n()
        );
        self.mask = mask;
        self.pim.set_port_mask(mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservable_fraction_value() {
        assert!((reservable_fraction() - 0.7176).abs() < 1e-3);
    }

    #[test]
    fn table_budget_enforced() {
        let mut t = ReservationTable::new(2, 10);
        t.set(0, 0, 6).unwrap();
        t.set(0, 1, 4).unwrap();
        let e = t.set(0, 0, 7).unwrap_err();
        assert!(e.on_input);
        assert_eq!(e.budget, 10);
        // Unchanged after error.
        assert_eq!(t.units(0, 0), 6);
        // Output budget as well.
        t.set(1, 1, 6).unwrap();
        let e = t.set(1, 1, 7).unwrap_err();
        assert!(!e.on_input);
        assert!(e.to_string().contains("output 1"), "{e}");
    }

    #[test]
    fn table_slack_accounting() {
        let mut t = ReservationTable::new(3, 12);
        t.set(0, 1, 5).unwrap();
        t.set(2, 1, 7).unwrap();
        assert_eq!(t.input_slack(0), 7);
        assert_eq!(t.output_slack(1), 0);
        assert_eq!(t.output_slack(0), 12);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        for (n, x) in [(1, 4), (5, 8), (16, 16), (40, 64), (100, 100)] {
            let pmf = binomial_pmf(n, x);
            let sum: f64 = pmf.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "n={n} x={x} sum={sum}");
            assert!(pmf.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn conditional_cdf_is_well_formed() {
        for (n, x) in [(1, 8), (4, 8), (8, 8), (32, 64)] {
            let cdf = VirtualGrantCdf::conditional(n, x);
            assert_eq!(cdf.cdf.len(), n + 1);
            for w in cdf.cdf.windows(2) {
                assert!(w[1] >= w[0] - 1e-12);
            }
            let last = *cdf.cdf.last().unwrap();
            assert!((last - 1.0).abs() < 1e-9, "n={n} x={x} last={last}");
        }
    }

    #[test]
    fn conditional_mean_matches_theory() {
        // The unconditional mean of Binom(n, 1/X) is n/X and the grant
        // probability is also n/X, so E[m | grant] = E[m]/P{grant} = 1
        // exactly (m is 0 whenever there is no grant). Verify by sampling.
        let n_units = 8;
        let x = 32;
        let cdf = VirtualGrantCdf::conditional(n_units, x);
        let mut rng = Xoshiro256::seed_from(3);
        let draws = 200_000;
        let total: usize = (0..draws).map(|_| cdf.sample(&mut rng)).sum();
        let mean = total as f64 / draws as f64;
        assert!((mean - 1.0).abs() < 0.02, "conditional mean {mean}");
    }

    #[test]
    fn only_reserved_pairs_match() {
        let table = ReservationTable::from_fn(4, 8, |i, j| if i == j { 8 } else { 0 });
        let mut sm = StatisticalMatcher::new(table, 5);
        for _ in 0..200 {
            let m = sm.next_match();
            for (i, j) in m.pairs() {
                assert_eq!(i.index(), j.index());
            }
        }
    }

    #[test]
    fn one_round_fully_reserved_rate_is_one_minus_inv_e() {
        // Appendix C: P{i matches} -> 1 - 1/e ≈ 0.632 for large X when the
        // switch is fully reserved.
        let n = 4;
        let x = 64;
        let table = ReservationTable::from_fn(n, x, |_, _| x / n);
        let mut sm = StatisticalMatcher::with_rounds(table, 11, 1);
        let slots = 40_000;
        let matched: usize = (0..slots).map(|_| sm.next_match().len()).sum();
        let rate = matched as f64 / (slots * n) as f64;
        let expect = 1.0 - (-1.0f64).exp();
        assert!(
            (rate - expect).abs() < 0.02,
            "one-round match rate {rate}, theory {expect}"
        );
    }

    #[test]
    fn two_rounds_reach_72_percent() {
        let n = 4;
        let x = 64;
        let table = ReservationTable::from_fn(n, x, |_, _| x / n);
        let mut sm = StatisticalMatcher::new(table, 13);
        let slots = 40_000;
        let matched: usize = (0..slots).map(|_| sm.next_match().len()).sum();
        let rate = matched as f64 / (slots * n) as f64;
        let expect = reservable_fraction();
        assert!(
            rate >= expect - 0.02,
            "two-round match rate {rate}, theory >= {expect}"
        );
    }

    #[test]
    fn match_rate_proportional_to_reservation() {
        // Input 0 reserves 3/4 of its units for output 0 and 1/4 for
        // output 1; delivered slots should be in a ~3:1 ratio.
        let x = 64;
        let mut table = ReservationTable::new(2, x);
        table.set(0, 0, 48).unwrap();
        table.set(0, 1, 16).unwrap();
        let mut sm = StatisticalMatcher::new(table, 17);
        let mut to0 = 0usize;
        let mut to1 = 0usize;
        for _ in 0..60_000 {
            let m = sm.next_match();
            match m.output_of(InputPort::new(0)).map(|o| o.index()) {
                Some(0) => to0 += 1,
                Some(1) => to1 += 1,
                _ => {}
            }
        }
        let ratio = to0 as f64 / to1 as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn set_units_updates_behaviour() {
        let x = 32;
        let mut sm = StatisticalMatcher::new(ReservationTable::new(2, x), 23);
        // Nothing reserved: no matches ever.
        for _ in 0..100 {
            assert!(sm.next_match().is_empty());
        }
        sm.set_units(1, 0, x).unwrap();
        let matched = (0..2000).filter(|_| !sm.next_match().is_empty()).count();
        assert!(matched > 1000, "matched {matched} of 2000 after update");
    }

    #[test]
    fn pim_fill_uses_leftover_capacity() {
        use crate::pim::{AcceptPolicy, IterationLimit};
        let n = 4;
        let x = 16;
        // Reserve only the diagonal at half rate.
        let table = ReservationTable::from_fn(n, x, |i, j| if i == j { x / 2 } else { 0 });
        let pim = Pim::with_options(n, 3, IterationLimit::ToCompletion, AcceptPolicy::Random);
        let mut sched = StatisticalMatcher::new(table, 29).into_scheduler(pim);
        assert_eq!(sched.name(), "stat+pim");
        // All-to-all requests: every slot should end maximal (here: perfect).
        let reqs = RequestMatrix::from_fn(n, |_, _| true);
        for _ in 0..50 {
            let m = sched.schedule(&reqs);
            assert!(m.is_perfect());
            assert!(m.respects(&reqs));
        }
    }

    #[test]
    fn pim_fill_drops_reserved_pairs_without_cells() {
        use crate::pim::{AcceptPolicy, IterationLimit};
        let n = 2;
        let x = 8;
        // Input 0 fully reserves output 0, but only (1, 1) has queued cells.
        let table = ReservationTable::from_fn(n, x, |i, j| {
            if i == 0 && j == 0 {
                x
            } else {
                0
            }
        });
        let pim = Pim::with_options(n, 3, IterationLimit::ToCompletion, AcceptPolicy::Random);
        let mut sched = StatisticalMatcher::new(table, 31).into_scheduler(pim);
        let reqs = RequestMatrix::from_pairs(n, [(1, 1)]);
        for _ in 0..50 {
            let m = sched.schedule(&reqs);
            assert!(m.respects(&reqs));
            assert_eq!(m.len(), 1);
            assert_eq!(m.output_of(InputPort::new(1)), Some(OutputPort::new(1)));
        }
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_panics() {
        let _ = StatisticalMatcher::with_rounds(ReservationTable::new(2, 4), 0, 0);
    }
}
