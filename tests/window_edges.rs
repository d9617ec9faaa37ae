//! Edge-case coverage for `check_window` / `first_free_in`, pinned
//! across all five query backends (discrete, bitvec, compiled,
//! modulo-discrete, modulo-bitvec).
//!
//! The window contract (rmd-query traits): bit `i` of
//! `check_window(op, start, len)` is set iff `check(op, start + i)`
//! would say free, `len` is clamped to 64, cycles past `u32::MAX` read
//! as busy, and `first_free_in` processes longer windows in 64-cycle
//! chunks. The cases here sit exactly on those seams: zero-length
//! windows, the 64-cycle chunk boundary, windows that start far beyond
//! the schedule horizon, and windows that run off the end of the cycle
//! domain. At every seam the batched searches must also charge the
//! `check` counter exactly what the scalar loops they replace charge —
//! the accounting the paper's Table 6 rests on.

use rmd_machine::alternatives::AltGroups;
use rmd_machine::{MachineBuilder, MachineDescription, OpId};
use rmd_query::{
    check_with_alt, first_free_with_alt, BitvecModule, CompiledModule, ContentionQuery,
    DiscreteModule, FnCounter, ModuloBitvecModule, ModuloDiscreteModule, OpInstance, WordLayout,
};

/// A machine built for window probing: `nop` reserves one resource in
/// cycle 0 only (its checks never add a cycle offset, so it is safe at
/// `u32::MAX`), and `div` holds the divider for 8 straight cycles, so a
/// run of `div` placements builds an arbitrarily long busy prefix.
fn window_machine() -> MachineDescription {
    let mut b = MachineBuilder::new("window-edges");
    let alu = b.resource("alu");
    let div = b.resource("divider");
    b.operation("nop").usage(alu, 0).finish();
    b.operation("div").usage(alu, 0).span(div, 0, 8).finish();
    b.build().expect("test machine builds")
}

/// One of each of the five bench backends over `m`. The modulo modules
/// use the II every bench workload uses: the longest reservation table.
fn backends(m: &MachineDescription) -> Vec<(&'static str, Box<dyn ContentionQuery>)> {
    let layout = WordLayout::widest(64, m.num_resources());
    let ii = m.max_table_length().max(1);
    vec![
        ("discrete", Box::new(DiscreteModule::new(m))),
        ("bitvec", Box::new(BitvecModule::new(m, layout))),
        ("compiled", Box::new(CompiledModule::new(m, layout))),
        (
            "modulo_discrete",
            Box::new(ModuloDiscreteModule::new(m, ii)),
        ),
        (
            "modulo_bitvec",
            Box::new(ModuloBitvecModule::new(m, ii, layout)),
        ),
    ]
}

/// The scalar reference for `check_window`: assemble the mask from
/// individual `check` calls, clamping to 64 and treating cycles past
/// `u32::MAX` as busy.
fn scalar_mask(q: &mut dyn ContentionQuery, op: OpId, start: u32, len: u32) -> u64 {
    let mut mask = 0u64;
    for i in 0..len.min(64) {
        let Some(cycle) = start.checked_add(i) else {
            break;
        };
        if q.check(op, cycle) {
            mask |= 1u64 << i;
        }
    }
    mask
}

/// The scalar reference for `first_free_in` over the full (unclamped)
/// window.
fn scalar_first_free(
    q: &mut dyn ContentionQuery,
    op: OpId,
    start: u32,
    len: u32,
) -> Option<u32> {
    let end = u64::from(start) + u64::from(len);
    (u64::from(start)..end)
        .take_while(|&c| c <= u64::from(u32::MAX))
        .map(|c| c as u32)
        .find(|&c| q.check(op, c))
}

/// The scalar reference for `first_free_with_alt`: `check_with_alt`
/// cycle by cycle over the full window.
fn scalar_first_free_with_alt(
    q: &mut dyn ContentionQuery,
    groups: &AltGroups,
    op: OpId,
    start: u32,
    len: u32,
) -> Option<(u32, OpId)> {
    let end = u64::from(start) + u64::from(len);
    (u64::from(start)..end)
        .take_while(|&c| c <= u64::from(u32::MAX))
        .find_map(|c| check_with_alt(q, groups, op, c as u32).map(|alt| (c as u32, alt)))
}

/// Runs `probe` and returns its answer with what it charged to the
/// `check` counter.
fn charged<T>(
    q: &mut dyn ContentionQuery,
    probe: impl FnOnce(&mut dyn ContentionQuery) -> T,
) -> (T, FnCounter) {
    let before = q.counters().check;
    let got = probe(q);
    let after = q.counters().check;
    let cost = FnCounter {
        calls: after.calls - before.calls,
        units: after.units - before.units,
    };
    (got, cost)
}

/// The two alternative groupings of `window_machine`: the identity
/// (no real alternatives, so `first_free_with_alt` takes the batched
/// path) and `nop`/`div` as alternatives of one another.
fn groupings() -> [AltGroups; 2] {
    let m = window_machine();
    let pair = vec![m.op_by_name("nop").unwrap(), m.op_by_name("div").unwrap()];
    [
        AltGroups::identity(&m),
        AltGroups::from_groups(&m, vec![("pair".to_owned(), pair)]),
    ]
}

/// Asserts that the backend's window answers — and their `check`
/// charges — equal its own scalar reference at `(op, start, len)`: the
/// conformance every edge case below reduces to.
fn assert_conforms(name: &str, q: &mut dyn ContentionQuery, op: OpId, start: u32, len: u32) {
    let want_mask = scalar_mask(q, op, start, len);
    let got_mask = q.check_window(op, start, len);
    assert_eq!(
        got_mask, want_mask,
        "{name}: check_window({op:?}, {start}, {len}) = {got_mask:#x}, \
         scalar reference assembles {want_mask:#x}"
    );
    let (want_first, scalar_cost) = charged(q, |q| scalar_first_free(q, op, start, len));
    let (got_first, window_cost) = charged(q, |q| q.first_free_in(op, start, len));
    assert_eq!(
        got_first, want_first,
        "{name}: first_free_in({op:?}, {start}, {len}) disagrees with the scalar scan"
    );
    assert_eq!(
        window_cost, scalar_cost,
        "{name}: first_free_in({op:?}, {start}, {len}) charged check differently \
         from the scalar scan"
    );
    for (g, groups) in groupings().iter().enumerate() {
        let (want, scalar_cost) =
            charged(q, |q| scalar_first_free_with_alt(q, groups, op, start, len));
        let (got, window_cost) = charged(q, |q| first_free_with_alt(q, groups, op, start, len));
        assert_eq!(
            got, want,
            "{name}: first_free_with_alt({op:?}, {start}, {len}), grouping {g}, \
             disagrees with the check_with_alt scan"
        );
        assert_eq!(
            window_cost, scalar_cost,
            "{name}: first_free_with_alt({op:?}, {start}, {len}), grouping {g}, \
             charged check differently from the check_with_alt scan"
        );
    }
}

#[test]
fn zero_length_windows_are_empty_and_find_nothing() {
    let m = window_machine();
    let nop = m.op_by_name("nop").unwrap();
    let div = m.op_by_name("div").unwrap();
    for (name, mut q) in backends(&m) {
        for start in [0u32, 1, 63, 64, 65, 10_000, u32::MAX] {
            for op in [nop, div] {
                assert_eq!(
                    q.check_window(op, start, 0),
                    0,
                    "{name}: zero-length window at {start} must be all-busy"
                );
                assert_eq!(
                    q.first_free_in(op, start, 0),
                    None,
                    "{name}: zero-length window at {start} must find nothing"
                );
                assert_conforms(name, q.as_mut(), op, start, 0);
            }
        }
    }
}

#[test]
fn window_length_clamps_to_64() {
    let m = window_machine();
    let div = m.op_by_name("div").unwrap();
    for (name, mut q) in backends(&m) {
        q.assign(OpInstance(0), div, 3);
        let clamped = q.check_window(div, 0, 64);
        for len in [65u32, 100, u32::MAX] {
            let got = q.check_window(div, 0, len);
            assert_eq!(
                got, clamped,
                "{name}: check_window len {len} must clamp to the 64-cycle mask"
            );
        }
        for len in [1u32, 64, 65, 130] {
            assert_conforms(name, q.as_mut(), div, 0, len);
        }
    }
}

/// A busy prefix longer than one 64-cycle chunk: `first_free_in` must
/// cross the chunk boundary and land on the first free cycle, and
/// windows ending exactly at the boundary must come back empty. Linear
/// backends only — a modulo table repeats with period II, so a busy
/// prefix cannot outgrow one chunk there (the modulo chunk crossing is
/// exercised in `far_beyond_horizon_windows_conform`).
#[test]
fn first_free_crosses_the_chunk_boundary() {
    let m = window_machine();
    let div = m.op_by_name("div").unwrap();
    let layout = WordLayout::widest(64, m.num_resources());
    let linear: Vec<(&str, Box<dyn ContentionQuery>)> = vec![
        ("discrete", Box::new(DiscreteModule::new(&m))),
        ("bitvec", Box::new(BitvecModule::new(&m, layout))),
        ("compiled", Box::new(CompiledModule::new(&m, layout))),
    ];
    for (name, mut q) in linear {
        // div holds the divider for 8 cycles, so placements at
        // 0, 8, …, 64 leave every cycle in 0..=71 busy; 72 is free.
        for (i, t) in (0..=64).step_by(8).enumerate() {
            q.assign(OpInstance(i as u32), div, t);
        }
        assert_eq!(
            q.first_free_in(div, 0, 200),
            Some(72),
            "{name}: the first free cycle lies in the second 64-cycle chunk"
        );
        assert_eq!(
            q.first_free_in(div, 0, 72),
            None,
            "{name}: a window ending exactly at the busy/free boundary is full"
        );
        assert_eq!(
            q.first_free_in(div, 0, 73),
            Some(72),
            "{name}: widening the window by one cycle exposes the free slot"
        );
        // The chunk-boundary masks match the scalar reference too.
        for start in [0u32, 63, 64, 65, 71, 72] {
            assert_conforms(name, q.as_mut(), div, start, 64);
        }
    }
}

/// Windows starting far past the schedule horizon: linear backends see
/// nothing scheduled out there (all-free masks), modulo backends see
/// the II-periodic image of the one placement. Both must match their
/// own scalar reference, including across a >64-cycle chunked scan.
#[test]
fn far_beyond_horizon_windows_conform() {
    let m = window_machine();
    let nop = m.op_by_name("nop").unwrap();
    let div = m.op_by_name("div").unwrap();
    for (name, mut q) in backends(&m) {
        q.assign(OpInstance(0), div, 2);
        for start in [1_000u32, 65_536, 1_000_000] {
            for op in [nop, div] {
                // A 130-cycle window forces the chunked first_free_in
                // path far beyond anything ever assigned.
                for len in [64u32, 130] {
                    assert_conforms(name, q.as_mut(), op, start, len);
                }
            }
        }
        // Linear backends must report the out-of-horizon window fully
        // free; this pins the semantics, not just self-conformance.
        if !name.starts_with("modulo") {
            assert_eq!(
                q.check_window(div, 1_000_000, 64),
                u64::MAX,
                "{name}: nothing is scheduled a million cycles out"
            );
        }
    }
}

/// Windows that run off the end of the cycle domain: cycles past
/// `u32::MAX` read as busy, so only the in-domain prefix of the mask
/// can have bits set, and `first_free_in` never reports a cycle it
/// could not represent. `nop`'s reservation table is a single cycle-0
/// usage, so its checks are well-defined at `u32::MAX` itself.
#[test]
fn windows_saturate_at_the_cycle_domain_boundary() {
    let m = window_machine();
    let nop = m.op_by_name("nop").unwrap();
    for (name, mut q) in backends(&m) {
        // Empty schedule: the four representable cycles are free, the
        // sixty past-the-end bits are busy.
        let start = u32::MAX - 3;
        let got = q.check_window(nop, start, 64);
        assert_eq!(
            got, 0b1111,
            "{name}: only the 4 in-domain cycles of [{start}, +64) can be free"
        );
        assert_eq!(
            q.first_free_in(nop, start, 64),
            Some(start),
            "{name}: the first in-domain cycle is free"
        );
        // A window that *starts* on the last representable cycle.
        assert_eq!(q.check_window(nop, u32::MAX, 64), 0b1, "{name}");
        assert_eq!(q.first_free_in(nop, u32::MAX, 64), Some(u32::MAX), "{name}");
        for len in [4u32, 64, 200] {
            assert_conforms(name, q.as_mut(), nop, start, len);
        }
        assert_conforms(name, q.as_mut(), nop, u32::MAX, 64);
    }
}
