//! Compare hazard detection via finite-state automata (Proebsting-Fraser
//! / Bala-Rubin) with reduced reservation tables, on the MIPS R3000 and
//! the Alpha 21064.
//!
//! ```text
//! cargo run -p rmd-examples --bin automata_comparison
//! ```

use rmd_automata::{cost, partition_resources, Automaton, Cursor, Direction, FactoredAutomata};
use rmd_core::{reduce, Objective};
use rmd_examples::section;
use rmd_machine::models::{alpha21064, mips_r3000};
use rmd_query::{ContentionQuery, DiscreteModule, OpInstance};

fn main() {
    section("1. MIPS R3000/R3010: a monolithic automaton is buildable");
    let mips = mips_r3000();
    let fsa = Automaton::build(&mips, Direction::Forward, 2_000_000).expect("fits");
    println!(
        "{} states, transition tables {} KiB",
        fsa.num_states(),
        fsa.table_bytes() / 1024
    );
    let red = reduce(&mips, Objective::ResUses);
    println!(
        "reduced reservation tables: {} resources, {} total usages \
         (tables fit in a few hundred bytes)",
        red.reduced.num_resources(),
        red.reduced.total_usages()
    );

    section("2. Both agree on every in-order decision");
    let mut cur = Cursor::new(&fsa);
    let mut tables = DiscreteModule::new(&mips);
    let script: Vec<_> = (0..200u32)
        .map(|i| rmd_machine::OpId((i * 13 + i / 7) % mips.num_operations() as u32))
        .collect();
    let mut inst = 0u32;
    let mut agreements = 0;
    for (i, &op) in script.iter().enumerate() {
        let t = i as u32; // one candidate issue per cycle, in order
        cur.advance_to(t);
        let a = cur.can_issue(op);
        let b = tables.check(op, t);
        assert_eq!(a, b, "automaton and tables disagree at {t}");
        agreements += 1;
        if a {
            cur.try_issue(op);
            tables.assign(OpInstance(inst), op, t);
            inst += 1;
        }
    }
    println!("{agreements} decisions, 0 disagreements");

    section("3. Alpha 21064: the automaton must be factored");
    let alpha = alpha21064();
    match Automaton::build(&alpha, Direction::Forward, 200_000) {
        Ok(a) => println!("monolithic: {} states", a.num_states()),
        Err(e) => println!("monolithic: {e}"),
    }
    let p = partition_resources(&alpha, 2);
    let fwd = FactoredAutomata::build(&alpha, Direction::Forward, &p, 2_000_000).unwrap();
    let rev = FactoredAutomata::build(&alpha, Direction::Reverse, &p, 2_000_000).unwrap();
    println!(
        "factored: forward {:?}, reverse {:?} states",
        fwd.state_counts(),
        rev.state_counts()
    );

    section("3b. Unrestricted scheduling via a forward/reverse pair");
    let mips_rev = Automaton::build(&mips, Direction::Reverse, 2_000_000).expect("fits");
    let mut pairsched = rmd_automata::unrestricted::PairScheduler::new(&mips, &fsa, &mips_rev, 128);
    let mut tables = DiscreteModule::new(&mips); // fresh empty schedule
    let mut placed = 0u32;
    for i in 0..200u32 {
        let op = rmd_machine::OpId((i * 7) % mips.num_operations() as u32);
        let t = (i * 37) % 100; // arbitrary order, mid-schedule insertions
        let a = pairsched.check(op, t);
        assert_eq!(a, tables.check(op, t), "pair and tables must agree");
        if a {
            pairsched.insert(op, t);
            tables.assign(OpInstance(1000 + placed), op, t);
            placed += 1;
        }
    }
    let st = pairsched.stats();
    println!(
        "{placed} insertions: automata pair did {} lookups and {} cached-state \
         writes, holding {} bytes of per-cycle state;",
        st.lookups,
        st.state_writes,
        pairsched.cached_state_bytes()
    );
    println!(
        "the reservation tables did {} work units with no cached state at all.",
        tables.counters().total_units()
    );

    section("4. Memory per schedule cycle for unrestricted scheduling");
    let red = reduce(&alpha, Objective::KCycleWord { k: 7 });
    println!(
        "automata (cached fwd+rev states): {} bits/cycle",
        cost::factored_cache_bits_per_cycle(&fwd, &rev)
    );
    println!(
        "reduced bitvector reserved table:  {} bits/cycle",
        cost::bitvector_bits_per_cycle(red.reduced.num_resources())
    );
    println!("(paper §6: ~64 bits vs 7 bits per cycle for this machine)");
}
