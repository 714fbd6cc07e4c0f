//! Property-based tests for the UDF layer: the aggregate UDF must
//! match direct computation for arbitrary data, partials must merge
//! associatively, and scoring UDFs must match the pure scoring
//! functions.

use nlq_models::{scoring, MatrixShape, Nlq};
use nlq_storage::Value;
use nlq_testkit::{run_cases, Rng};
use nlq_udf::pack::{pack_vector, unpack_nlq};
use nlq_udf::{
    AggregateUdf, ClusterScoreUdf, DistanceUdf, FaScoreUdf, LinearRegScoreUdf, NlqUdf, ParamStyle,
    ScalarUdf,
};

fn random_rows(rng: &mut Rng) -> Vec<Vec<f64>> {
    let d = rng.range_usize(1, 6);
    let n = rng.range_usize(1, 40);
    (0..n).map(|_| rng.vec_f64(d, -1e6, 1e6)).collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

fn run_udf(style: ParamStyle, shape: &str, rows: &[Vec<f64>]) -> Nlq {
    let udf = NlqUdf::new(style);
    let mut state = udf.init();
    let d = rows[0].len();
    for r in rows {
        let args = match style {
            ParamStyle::List => {
                let mut a = vec![Value::Int(d as i64), Value::from(shape)];
                a.extend(r.iter().map(|&v| Value::Float(v)));
                a
            }
            ParamStyle::String => vec![Value::from(shape), Value::Str(pack_vector(r))],
        };
        state.accumulate(&args).unwrap();
    }
    unpack_nlq(state.finalize().unwrap().as_str().unwrap()).unwrap()
}

#[test]
fn aggregate_udf_matches_direct() {
    run_cases(32, 0xadf1, |rng| {
        let rows = random_rows(rng);
        let d = rows[0].len();
        for (shape_name, shape) in [
            ("diag", MatrixShape::Diagonal),
            ("triang", MatrixShape::Triangular),
            ("full", MatrixShape::Full),
        ] {
            let direct = Nlq::from_rows(d, shape, &rows);
            for style in [ParamStyle::List, ParamStyle::String] {
                let got = run_udf(style, shape_name, &rows);
                assert_eq!(got.n(), direct.n());
                for a in 0..d {
                    assert!(close(got.l()[a], direct.l()[a]));
                    assert!(close(got.min()[a], direct.min()[a]));
                    assert!(close(got.max()[a], direct.max()[a]));
                    for b in 0..d {
                        assert!(
                            close(got.q_raw()[(a, b)], direct.q_raw()[(a, b)]),
                            "style {style:?} shape {shape_name} Q[{a}][{b}]"
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn partial_merges_match_any_split() {
    run_cases(32, 0xadf2, |rng| {
        let rows = random_rows(rng);
        let d = rows[0].len();
        let cut = rng.range_usize(0, rows.len());
        let udf = NlqUdf::new(ParamStyle::List);
        let mut left = udf.init();
        let mut right = udf.init();
        for (i, r) in rows.iter().enumerate() {
            let mut args = vec![Value::Int(d as i64), Value::from("triang")];
            args.extend(r.iter().map(|&v| Value::Float(v)));
            if i < cut {
                left.accumulate(&args).unwrap();
            } else {
                right.accumulate(&args).unwrap();
            }
        }
        left.merge(right.as_ref()).unwrap();
        let merged = unpack_nlq(left.finalize().unwrap().as_str().unwrap()).unwrap();
        let whole = run_udf(ParamStyle::List, "triang", &rows);
        assert_eq!(merged.n(), whole.n());
        for a in 0..d {
            assert!(close(merged.l()[a], whole.l()[a]));
            for b in 0..=a {
                assert!(close(merged.q_raw()[(a, b)], whole.q_raw()[(a, b)]));
            }
        }
    });
}

/// The summary store's maintenance invariant: folding partition and
/// delta states into a summary in *any* merge order and grouping must
/// reproduce the single-scan state — including NULL-bearing rows
/// (skipped identically everywhere) and empty partitions (identity
/// elements for merge).
#[test]
fn merge_any_order_and_grouping_matches_single_scan() {
    run_cases(64, 0xadf5, |rng| {
        let d = rng.range_usize(1, 6);
        let n = rng.range_usize(0, 60);
        // Rows as SQL values; ~1 in 8 coordinates is NULL, which must
        // drop the whole row from the statistics.
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| {
                        if rng.chance(0.125) {
                            Value::Null
                        } else {
                            Value::Float(rng.range_f64(-1e3, 1e3))
                        }
                    })
                    .collect()
            })
            .collect();
        let shape = ["diag", "triang", "full"][rng.range_usize(0, 2)];
        let udf = NlqUdf::new(ParamStyle::List);
        let args_for = |r: &[Value]| {
            let mut a = vec![Value::Int(d as i64), Value::from(shape)];
            a.extend(r.iter().cloned());
            a
        };

        // Reference: one state, one scan.
        let mut single = udf.init();
        for r in &rows {
            single.accumulate(&args_for(r)).unwrap();
        }
        let want_value = single.finalize().unwrap();

        // Scatter rows across partitions (some end up empty), then add
        // a couple of guaranteed-empty delta states.
        let parts = rng.range_usize(1, 8);
        let mut states: Vec<_> = (0..parts + 2).map(|_| udf.init()).collect();
        for r in &rows {
            let p = rng.range_usize(0, parts - 1);
            states[p].accumulate(&args_for(r)).unwrap();
        }

        // Random merge tree: any pair, either direction, until one
        // state remains. This covers arbitrary order *and* grouping.
        while states.len() > 1 {
            let i = rng.range_usize(0, states.len() - 1);
            let mut a = states.swap_remove(i);
            let j = rng.range_usize(0, states.len() - 1);
            let b = states.swap_remove(j);
            a.merge(b.as_ref()).unwrap();
            states.push(a);
        }
        let merged = states.pop().unwrap().finalize().unwrap();
        if want_value.is_null() {
            // All rows NULL-skipped (or n = 0): both sides agree on
            // the empty state.
            assert!(merged.is_null(), "empty merge finalized {merged:?}");
            return;
        }
        let want = unpack_nlq(want_value.as_str().unwrap()).unwrap();
        let got = unpack_nlq(merged.as_str().unwrap()).unwrap();

        // "Within 1e-12": relative to the accumulated L1 mass of each
        // entry, the correct scale for reassociated sums.
        let kept: Vec<Vec<f64>> = rows
            .iter()
            .filter(|r| r.iter().all(|v| !v.is_null()))
            .map(|r| r.iter().map(|v| v.as_f64().unwrap()).collect())
            .collect();
        let close12 = |a: f64, b: f64, mass: f64| (a - b).abs() <= 1e-12 * (1.0 + mass);
        assert_eq!(got.n(), want.n());
        assert_eq!(got.d(), want.d());
        for a in 0..d {
            let mass_l: f64 = kept.iter().map(|r| r[a].abs()).sum();
            assert!(close12(got.l()[a], want.l()[a], mass_l), "L[{a}]");
            assert_eq!(got.min()[a], want.min()[a], "min[{a}] is merge-exact");
            assert_eq!(got.max()[a], want.max()[a], "max[{a}] is merge-exact");
            for b in 0..d {
                let mass_q: f64 = kept.iter().map(|r| (r[a] * r[b]).abs()).sum();
                assert!(
                    close12(got.q_raw()[(a, b)], want.q_raw()[(a, b)], mass_q),
                    "shape {shape} Q[{a}][{b}]"
                );
            }
        }
    });
}

#[test]
fn scoring_udfs_match_pure_functions() {
    run_cases(48, 0xadf3, |rng| {
        let d = rng.range_usize(1, 7);
        let x = rng.vec_f64(d, -1e3, 1e3);
        let params = rng.vec_f64(8, -1e3, 1e3);
        let b0 = rng.range_f64(-1e3, 1e3);
        let beta = &params[..d];
        let mu = &params[..d];
        let lam = &params[..d];
        let floats =
            |vals: &[f64]| -> Vec<Value> { vals.iter().map(|&v| Value::Float(v)).collect() };

        // linearregscore
        let mut args = floats(&x);
        args.push(Value::Float(b0));
        args.extend(floats(beta));
        let got = LinearRegScoreUdf.eval(&args).unwrap();
        assert_eq!(got, Value::Float(scoring::linear_reg_score(&x, b0, beta)));

        // fascore
        let mut args = floats(&x);
        args.extend(floats(mu));
        args.extend(floats(lam));
        let got = FaScoreUdf.eval(&args).unwrap();
        assert_eq!(got, Value::Float(scoring::fa_score(&x, mu, lam)));

        // distance
        let mut args = floats(&x);
        args.extend(floats(mu));
        let got = DistanceUdf.eval(&args).unwrap();
        assert_eq!(got, Value::Float(scoring::squared_distance(&x, mu)));
    });
}

#[test]
fn clusterscore_matches_argmin() {
    run_cases(48, 0xadf4, |rng| {
        let k = rng.range_usize(1, 19);
        let dists = rng.vec_f64(k, 0.0, 1e9);
        let args: Vec<Value> = dists.iter().map(|&v| Value::Float(v)).collect();
        let got = ClusterScoreUdf.eval(&args).unwrap();
        assert_eq!(
            got,
            Value::Int(scoring::nearest_centroid(&dists) as i64 + 1)
        );
    });
}

// ---- The columnar (block) path ---------------------------------------

use nlq_storage::{parallel_scan_partitions, Schema, Table};
use nlq_udf::BatchArg;

/// `X(i, X1..Xd)` with ~1 in 20 coordinates NULL, spread round-robin
/// over `partitions`.
fn points_table(rng: &mut Rng, n: usize, d: usize, partitions: usize) -> Table {
    let mut t = Table::new(Schema::points(d, false), partitions);
    for i in 0..n {
        let mut row = vec![Value::Int(i as i64)];
        row.extend((0..d).map(|_| {
            if rng.chance(0.05) {
                Value::Null
            } else {
                Value::Float(rng.range_f64(-1e3, 1e3))
            }
        }));
        t.insert(row).unwrap();
    }
    t
}

fn batch_args(d: usize, shape: &str) -> Vec<BatchArg> {
    let mut args = vec![
        BatchArg::Const(Value::Int(d as i64)),
        BatchArg::Const(Value::from(shape)),
    ];
    args.extend((0..d).map(BatchArg::Col));
    args
}

/// A `WHERE`-style selection over one block: none, all, one row,
/// every other row, or a random subset.
fn selection(rng: &mut Rng, n: usize) -> Option<Vec<u64>> {
    let kind = rng.range_usize(0, 4);
    let single = rng.range_usize(0, n.max(1) - 1);
    if kind == 0 {
        return None;
    }
    let mut words = vec![0u64; n.div_ceil(64)];
    for i in 0..n {
        let keep = match kind {
            1 => true,
            2 => i == single,
            3 => i % 2 == 0,
            _ => rng.chance(0.5),
        };
        if keep {
            words[i / 64] |= 1 << (i % 64);
        }
    }
    Some(words)
}

#[test]
fn block_path_matches_row_path_under_selections_and_nulls() {
    // Several blocks per state (sealed chunks plus a tail), so the
    // first block's binding, the reused mask and compaction scratch,
    // and the all-kept shortcut all carry across blocks.
    run_cases(24, 0xadf6, |rng| {
        let d = rng.range_usize(1, 20);
        let n = rng.range_usize(0, 3000);
        let shape = ["diag", "triang", "full"][rng.range_usize(0, 2)];
        let t = points_table(rng, n, d, 1);
        let cols: Vec<usize> = (1..=d).collect();
        let args = batch_args(d, shape);
        let udf = NlqUdf::new(ParamStyle::List);
        let (mut block_state, mut row_state) = (udf.init(), udf.init());
        let mut kept: Vec<Vec<f64>> = Vec::new();
        let mut blocks = t.scan_partition_blocks(0, &cols).unwrap();
        while let Some(block) = blocks.next_block() {
            let block = block.unwrap();
            let sel = selection(rng, block.len());
            block_state
                .accumulate_batch(&block, &args, sel.as_deref())
                .unwrap();
            for i in 0..block.len() {
                if sel.as_ref().is_some_and(|s| s[i / 64] >> (i % 64) & 1 == 0) {
                    continue;
                }
                let x: Vec<Option<f64>> = (0..d)
                    .map(|a| (!block.column(a).is_null(i)).then(|| block.column(a).values[i]))
                    .collect();
                let mut row = vec![Value::Int(d as i64), Value::from(shape)];
                row.extend(x.iter().map(|v| v.map_or(Value::Null, Value::Float)));
                row_state.accumulate(&row).unwrap();
                if x.iter().all(Option::is_some) {
                    kept.push(x.into_iter().map(Option::unwrap).collect());
                }
            }
        }
        let (got, want) = (
            block_state.finalize().unwrap(),
            row_state.finalize().unwrap(),
        );
        if want.is_null() {
            assert!(got.is_null(), "no kept rows, yet {got:?}");
            return;
        }
        let got = unpack_nlq(got.as_str().unwrap()).unwrap();
        let want = unpack_nlq(want.as_str().unwrap()).unwrap();
        assert_eq!(got.n(), want.n());
        assert_eq!(got.min(), want.min());
        assert_eq!(got.max(), want.max());
        for a in 0..d {
            let mass: f64 = kept.iter().map(|r| r[a].abs()).sum();
            assert!((got.l()[a] - want.l()[a]).abs() <= 1e-12 * mass, "L[{a}]");
            for b in 0..d {
                let mass: f64 = kept.iter().map(|r| (r[a] * r[b]).abs()).sum();
                let (g, w) = (got.q_raw()[(a, b)], want.q_raw()[(a, b)]);
                assert!(
                    (g - w).abs() <= 1e-12 * mass,
                    "{shape} Q[{a}][{b}]: {g} vs {w}"
                );
            }
        }
    });
}

#[test]
fn partition_gamma_is_bit_identical_at_any_worker_count() {
    // One state per partition, merged in partition order: the sums
    // depend on each partition's rows alone, so the worker count that
    // scanned them cannot change a bit.
    let mut rng = Rng::new(0xadf7);
    let d = 7;
    let t = points_table(&mut rng, 9000, d, 4);
    let cols: Vec<usize> = (1..=d).collect();
    let args = batch_args(d, "full");
    let udf = NlqUdf::new(ParamStyle::List);
    let gamma = |workers: usize| {
        let partials = parallel_scan_partitions(&t, workers, |p| {
            let mut state = udf.init();
            let mut blocks = t.scan_partition_blocks(p, &cols).unwrap();
            while let Some(block) = blocks.next_block() {
                let block = block.unwrap();
                // WHERE X1 > 0, evaluated per block.
                let mut sel = vec![0u64; block.len().div_ceil(64)];
                for (i, x) in block.column(0).values.iter().enumerate() {
                    sel[i / 64] |= u64::from(*x > 0.0) << (i % 64);
                }
                state.accumulate_batch(&block, &args, Some(&sel)).unwrap();
            }
            state
        });
        let mut partials = partials.into_iter();
        let mut total = partials.next().unwrap();
        for p in partials {
            total.merge(p.as_ref()).unwrap();
        }
        total.finalize().unwrap()
    };
    let one = gamma(1);
    assert!(one.as_str().is_some());
    assert_eq!(gamma(2), one);
    assert_eq!(gamma(4), one);
}
