//! Microbenchmarks for the dataflow engine's hot paths: trace
//! accumulation against deep vs shallow histories, incremental join
//! steps, and spine compaction at increasing trace sizes.
//!
//! Set `BENCH_SMOKE=1` to run a reduced-iteration smoke pass (used by
//! CI to keep the benches compiling and executing without paying for
//! stable numbers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rc_dataflow::trace::KeyTrace;
use rc_dataflow::{Dataflow, Time};

fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

fn samples(normal: usize) -> usize {
    if smoke() {
        2
    } else {
        normal
    }
}

/// Accumulate one key's state from a 10k-record history, once with
/// every record still in the recent delta layer (deep — what a bulk
/// load in one epoch leaves) and once after a fold moved everything
/// into the consolidated base (shallow, one pass over the value-sorted
/// base), into one reused buffer.
fn trace_accumulate(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataflow/trace_accumulate");
    group.sample_size(samples(50));
    const RECORDS: u64 = 10_000;
    let build = || {
        let mut tr: KeyTrace<u32, u64> = KeyTrace::new();
        for i in 0..RECORDS {
            tr.push(0, i, Time::new(1, 0), 1);
        }
        tr
    };
    let t = Time::new(1024, 0);
    let mut out = Vec::new();

    let mut deep = build();
    group.bench_function("deep-history", |b| {
        b.iter(|| {
            deep.accumulate(&0, t, &mut out);
            out.len()
        })
    });

    let mut shallow = build();
    shallow.compact(1);
    group.bench_function("shallow-base", |b| {
        b.iter(|| {
            shallow.accumulate(&0, t, &mut out);
            out.len()
        })
    });
    group.finish();
}

/// Two incremental epochs through a 2000-key top-level join: insert a
/// record, advance, remove it, advance. Exercises dirty-set scheduling,
/// the merge into a key's accumulation and the match against the other
/// side's.
fn join_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataflow/join_step");
    group.sample_size(samples(30));
    const KEYS: u32 = 2_000;
    let mut df = Dataflow::new();
    let (a_in, a) = df.input::<(u32, u32)>();
    let (b_in, b_col) = df.input::<(u32, u32)>();
    let mut out = a.join(&b_col).output();
    a_in.extend((0..KEYS).map(|k| (k, k)));
    b_in.extend((0..KEYS).map(|k| (k, k + 1)));
    df.advance().expect("initial epoch");
    out.drain();
    group.bench_function(BenchmarkId::from_parameter(format!("{KEYS}-keys")), |b| {
        b.iter(|| {
            a_in.insert((7, 99));
            df.advance().expect("insert epoch");
            let n = out.drain().len();
            a_in.remove((7, 99));
            df.advance().expect("remove epoch");
            let m = out.drain().len();
            n + m
        })
    });
    group.finish();
}

/// Merge a 100-record recent batch into a consolidated base of n
/// records — the steady-state compaction step after the initial fold.
fn compact(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataflow/compact");
    group.sample_size(samples(20));
    let sizes: &[u64] = if smoke() { &[10_000, 100_000] } else { &[10_000, 100_000, 1_000_000] };
    for &n in sizes {
        let keys = (n / 64).max(1);
        let mut tr: KeyTrace<u32, u64> = KeyTrace::new();
        for i in 0..n {
            tr.push((i % keys) as u32, i, Time::new(1, (i % 4) as u32), 1);
        }
        tr.compact(1);
        let mut epoch = 2u64;
        let mut next = n;
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| {
                for j in 0..100 {
                    tr.push(((next + j) % keys) as u32, next + j, Time::new(epoch, 0), 1);
                }
                next += 100;
                tr.compact(epoch);
                epoch += 1;
                tr.base_len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, trace_accumulate, join_step, compact);
criterion_main!(benches);
