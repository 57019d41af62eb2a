//! Semantics of the linear and grouping operators across epochs.

use rc_dataflow::Dataflow;

#[test]
fn map_filter_negate_concat() {
    let mut df = Dataflow::new();
    let (input, nums) = df.input::<i64>();
    let doubled = nums.map(|x| x * 2);
    let evens = nums.filter(|x| x % 2 == 0);
    let union = doubled.concat(&evens);
    let minus = nums.concat(&nums.negate());
    let mut out_union = union.output();
    let mut out_minus = minus.output();

    input.extend([1, 2, 3]);
    df.advance().unwrap();
    out_union.drain();
    out_minus.drain();
    // doubled = {2,4,6}, evens = {2} → union multiset has 2 twice.
    assert_eq!(out_union.state(), vec![(2, 2), (4, 1), (6, 1)]);
    assert!(out_minus.is_empty(), "x ⊖ x must be empty");

    input.remove(2);
    df.advance().unwrap();
    out_union.drain();
    assert_eq!(out_union.state(), vec![(2, 1), (6, 1)]);
}

#[test]
fn flat_map_expands() {
    let mut df = Dataflow::new();
    let (input, nums) = df.input::<u32>();
    let expanded = nums.flat_map(|x| (0..x).collect::<Vec<_>>());
    let mut out = expanded.output();

    input.insert(3);
    df.advance().unwrap();
    out.drain();
    assert_eq!(out.state_set(), vec![0, 1, 2]);

    input.remove(3);
    input.insert(1);
    df.advance().unwrap();
    out.drain();
    assert_eq!(out.state_set(), vec![0]);
}

#[test]
fn distinct_collapses_multiplicity() {
    let mut df = Dataflow::new();
    let (input, xs) = df.input::<&'static str>();
    let d = xs.distinct();
    let mut out = d.output();

    input.insert("a");
    input.insert("a");
    input.insert("b");
    df.advance().unwrap();
    out.drain();
    assert_eq!(out.state(), vec![("a", 1), ("b", 1)]);

    // Removing one copy of "a" leaves it present.
    input.remove("a");
    df.advance().unwrap();
    let delta = out.drain();
    assert!(delta.is_empty(), "distinct must not change: {delta:?}");

    // Removing the second copy deletes it.
    input.remove("a");
    df.advance().unwrap();
    out.drain();
    assert_eq!(out.state(), vec![("b", 1)]);
}

#[test]
fn count_tracks_multiplicity() {
    let mut df = Dataflow::new();
    let (input, xs) = df.input::<(char, u32)>();
    let counted = xs.count();
    let mut out = counted.output();

    input.extend([('a', 1), ('a', 2), ('b', 9)]);
    df.advance().unwrap();
    out.drain();
    assert_eq!(out.state(), vec![(('a', 2), 1), (('b', 1), 1)]);

    input.remove(('a', 1));
    df.advance().unwrap();
    out.drain();
    assert_eq!(out.state(), vec![(('a', 1), 1), (('b', 1), 1)]);
}

#[test]
fn reduce_min_and_max() {
    let mut df = Dataflow::new();
    let (input, xs) = df.input::<(u8, i32)>();
    let min = xs.reduce_min();
    let max = xs.reduce_max();
    let mut out_min = min.output();
    let mut out_max = max.output();

    input.extend([(0, 5), (0, 3), (0, 9), (1, -1)]);
    df.advance().unwrap();
    out_min.drain();
    out_max.drain();
    assert_eq!(out_min.state(), vec![((0, 3), 1), ((1, -1), 1)]);
    assert_eq!(out_max.state(), vec![((0, 9), 1), ((1, -1), 1)]);

    // Deleting the current minimum promotes the next one.
    input.remove((0, 3));
    df.advance().unwrap();
    out_min.drain();
    out_max.drain();
    assert_eq!(out_min.state(), vec![((0, 5), 1), ((1, -1), 1)]);

    // Deleting the last value of a key removes the key entirely.
    input.remove((1, -1));
    df.advance().unwrap();
    out_min.drain();
    assert_eq!(out_min.state(), vec![((0, 5), 1)]);
}

#[test]
fn top_k_min_keeps_k_smallest() {
    let mut df = Dataflow::new();
    let (input, xs) = df.input::<((), u32)>();
    let top2 = xs.top_k_min(2);
    let mut out = top2.output();

    input.extend([((), 5), ((), 1), ((), 3), ((), 4)]);
    df.advance().unwrap();
    out.drain();
    assert_eq!(out.state_set(), vec![((), 1), ((), 3)]);

    input.remove(((), 1));
    df.advance().unwrap();
    out.drain();
    assert_eq!(out.state_set(), vec![((), 3), ((), 4)]);
}

#[test]
fn empty_epochs_are_cheap_noops() {
    let mut df = Dataflow::new();
    let (input, xs) = df.input::<u32>();
    let mut out = xs.map(|x| x + 1).output();
    input.insert(1);
    df.advance().unwrap();
    out.drain();
    let w0 = df.total_work();
    for _ in 0..5 {
        let stats = df.advance().unwrap();
        assert_eq!(stats.records, 0);
    }
    assert_eq!(df.total_work(), w0);
    assert_eq!(out.state_set(), vec![2]);
}

#[test]
fn updates_within_one_epoch_consolidate() {
    let mut df = Dataflow::new();
    let (input, xs) = df.input::<u32>();
    let mut out = xs.output();
    input.insert(7);
    input.remove(7);
    input.insert(8);
    let stats = df.advance().unwrap();
    let delta = out.drain();
    assert_eq!(delta, vec![(8, 1)]);
    // The cancelling pair is consolidated away at the input node.
    assert!(stats.records <= 4);
}

#[test]
fn semijoin_and_antijoin() {
    let mut df = Dataflow::new();
    let (pairs_in, pairs) = df.input::<(u32, &'static str)>();
    let (keys_in, keys) = df.input::<u32>();
    let mut sj = pairs.semijoin(&keys).output();
    let mut aj = pairs.antijoin(&keys).output();

    pairs_in.extend([(1, "a"), (2, "b"), (3, "c")]);
    keys_in.insert(1);
    keys_in.insert(1); // duplicate key must not duplicate output
    keys_in.insert(3);
    df.advance().unwrap();
    sj.drain();
    aj.drain();
    assert_eq!(sj.state(), vec![((1, "a"), 1), ((3, "c"), 1)]);
    assert_eq!(aj.state(), vec![((2, "b"), 1)]);

    keys_in.remove(3);
    df.advance().unwrap();
    sj.drain();
    aj.drain();
    assert_eq!(sj.state(), vec![((1, "a"), 1)]);
    assert_eq!(aj.state(), vec![((2, "b"), 1), ((3, "c"), 1)]);

    // Removing one of the duplicate 1-keys keeps the semijoin intact.
    keys_in.remove(1);
    df.advance().unwrap();
    sj.drain();
    aj.drain();
    assert_eq!(sj.state(), vec![((1, "a"), 1)]);
}

#[test]
fn reduce_general_logic() {
    // Sum of values per key, as a user-provided reduction.
    let mut df = Dataflow::new();
    let (input, xs) = df.input::<(char, i64)>();
    let sums = xs.reduce(|_, vals| {
        let s: i64 = vals.iter().map(|(v, r)| v * (*r as i64)).sum();
        vec![(s, 1)]
    });
    let mut out = sums.output();

    input.extend([('a', 10), ('a', 5), ('b', 1)]);
    df.advance().unwrap();
    out.drain();
    assert_eq!(out.state(), vec![(('a', 15), 1), (('b', 1), 1)]);

    input.insert(('a', 10)); // second copy: multiplicity counts
    df.advance().unwrap();
    out.drain();
    assert_eq!(out.state(), vec![(('a', 25), 1), (('b', 1), 1)]);

    input.remove(('b', 1));
    df.advance().unwrap();
    out.drain();
    assert_eq!(out.state(), vec![(('a', 25), 1)]);
}

#[test]
fn compaction_preserves_results() {
    let mut df = Dataflow::new();
    let (input, xs) = df.input::<(u8, u32)>();
    let min = xs.reduce_min();
    let mut out = min.output();

    for i in 0..20u32 {
        input.insert((0, 100 - i));
        df.advance().unwrap();
        out.drain();
    }
    assert_eq!(out.state_set(), vec![(0, 81)]);
    df.compact();
    // Post-compaction updates still correct.
    input.remove((0, 81));
    df.advance().unwrap();
    out.drain();
    assert_eq!(out.state_set(), vec![(0, 82)]);
    input.insert((0, 1));
    df.advance().unwrap();
    out.drain();
    assert_eq!(out.state_set(), vec![(0, 1)]);
}

#[test]
fn output_handle_views() {
    let mut df = Dataflow::new();
    let (input, xs) = df.input::<u32>();
    let mut out = xs.output();
    input.insert(4);
    input.insert(4);
    df.advance().unwrap();
    let delta = out.drain();
    assert_eq!(delta, vec![(4, 2)]);
    assert_eq!(out.count(&4), 2);
    assert!(out.contains(&4));
    assert!(!out.contains(&5));
    assert_eq!(out.len(), 1);
}

#[test]
fn step_time_is_reported_per_top_level_operator() {
    // Reachability along a 40-node chain: the scope iterates 40 times,
    // so its step takes well over a microsecond.
    let mut df = Dataflow::new();
    let telemetry = rc_telemetry::Telemetry::new();
    df.set_telemetry(telemetry.clone());
    let (input, edges) = df.input::<(u32, u32)>();
    let reach = edges.iterate(|inner| {
        let step = inner.map(|(x, y)| (y, x)).join(&edges).map(|(_y, (x, z))| (x, z));
        inner.concat(&step).distinct()
    });
    let _out = reach.map(|(x, _z)| x).output();
    input.extend((0..40).map(|i| (i, i + 1)));
    df.advance().unwrap();

    let stats = df.op_stats();
    assert!(stats["iterate"].step_ns >= 1000, "{:?}", stats["iterate"]);
    // The scope is timed whole; the operators inside it carry no time
    // of their own.
    for op in ["join", "distinct", "concat"] {
        assert!(stats[op].work > 0, "{op} did no work");
        assert_eq!(stats[op].step_ns, 0, "{op}");
    }
    let counters = telemetry.snapshot().counters;
    assert!(counters["dataflow.step_us.iterate"] >= 1);
    assert_eq!(counters["dataflow.step_us.iterate"], stats["iterate"].step_ns / 1000);

    // An epoch that steps nothing adds no time.
    df.advance().unwrap();
    assert_eq!(df.op_stats()["iterate"].step_ns, stats["iterate"].step_ns);
}
