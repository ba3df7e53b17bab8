//! Ablation benches for the automata substrate.
//!
//! * the one-pass production minimizer vs the Moore oracle;
//! * antichain vs naive (full-determinization) language inclusion;
//! * subset construction and regex compilation as baselines.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pathlearn_automata::inclusion::{nfa_included_in, nfa_included_in_naive};
use pathlearn_automata::minimize::{minimize, minimize_moore};
use pathlearn_automata::{Alphabet, Dfa, Nfa, Regex, StateId, Symbol};
use std::hint::black_box;

fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

/// A pseudo-random DFA with `n` states over `alphabet` symbols.
fn random_dfa(n: usize, alphabet: usize, seed: u64) -> Dfa {
    let mut s = seed | 1;
    let mut dfa = Dfa::new(n, alphabet, 0);
    for state in 0..n as StateId {
        for a in 0..alphabet {
            if !xorshift(&mut s).is_multiple_of(8) {
                dfa.set_transition(
                    state,
                    Symbol::from_index(a),
                    (xorshift(&mut s) % n as u64) as StateId,
                );
            }
        }
        if xorshift(&mut s).is_multiple_of(4) {
            dfa.set_final(state);
        }
    }
    dfa
}

/// A pseudo-random NFA.
fn random_nfa(n: usize, alphabet: usize, edges: usize, seed: u64) -> Nfa {
    let mut s = seed | 1;
    let mut nfa = Nfa::new(n, alphabet);
    nfa.set_initial(0);
    for _ in 0..edges {
        nfa.add_transition(
            (xorshift(&mut s) % n as u64) as StateId,
            Symbol::from_index((xorshift(&mut s) % alphabet as u64) as usize),
            (xorshift(&mut s) % n as u64) as StateId,
        );
    }
    for state in 0..n {
        if xorshift(&mut s).is_multiple_of(3) {
            nfa.set_final(state as StateId);
        }
    }
    nfa
}

fn bench_minimization(c: &mut Criterion) {
    let dfa = random_dfa(400, 4, 0xBEEF);
    let mut group = c.benchmark_group("minimize");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("minimize_400", |b| b.iter(|| minimize(black_box(&dfa))));
    group.bench_function("moore_400", |b| b.iter(|| minimize_moore(black_box(&dfa))));
    group.finish();
}

fn bench_inclusion(c: &mut Criterion) {
    let a = random_nfa(12, 2, 40, 0xCAFE);
    let b = random_nfa(12, 2, 60, 0xF00D);
    let mut group = c.benchmark_group("inclusion");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("antichain_12", |bench| {
        bench.iter(|| nfa_included_in(black_box(&a), black_box(&b)).is_ok())
    });
    group.bench_function("naive_subset_12", |bench| {
        bench.iter(|| nfa_included_in_naive(black_box(&a), black_box(&b)).is_ok())
    });
    group.finish();
}

fn bench_compile(c: &mut Criterion) {
    let alphabet = Alphabet::from_labels(["a", "b", "c", "d"]);
    let regex = Regex::parse("(a·b + c·(a+d)*)*·c·(a + b·d)", &alphabet).unwrap();
    let nfa = random_nfa(30, 3, 120, 0xABCD);
    let mut group = c.benchmark_group("compile");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("regex_to_dfa", |b| {
        b.iter(|| black_box(&regex).to_dfa(alphabet.len()))
    });
    group.bench_function("determinize_30", |b| {
        b.iter_batched(
            || nfa.clone(),
            |n| pathlearn_automata::determinize::determinize(&n),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_minimization, bench_inclusion, bench_compile);
criterion_main!(benches);
