//! Morsel-driven parallel MD-join (work-stealing scheduling).
//!
//! The static Theorem 4.1 plans in [`crate::parallel`] split their input into
//! one contiguous chunk per worker up front. Under skew — a Zipf-distributed
//! join column, a θ whose probe cost varies per tuple — chunks take unequal
//! time and the slowest worker gates the join. The morsel executor instead
//! splits the input into fixed-size *morsels* (default
//! [`crate::context::DEFAULT_MORSEL_SIZE`] rows, tunable via
//! [`ExecContext::with_morsel_size`]), seeds each worker's deque with a
//! contiguous run of morsels for locality, and lets idle workers steal from
//! busy ones, so the load rebalances at morsel granularity.
//!
//! Both Theorem 4.1 orientations are supported:
//!
//! * [`MorselSide::Detail`] — morsels over `R`; each worker keeps aggregate
//!   state for all of `B` and partial states are merged at the end (one
//!   logical scan of `R`). The default: it scans `R` once regardless of
//!   morsel count.
//! * [`MorselSide::Base`] — morsels over `B`; each morsel is a full MD-join
//!   of a `B` fragment against `R` (memory-bounded, `⌈|B|/morsel⌉` scans of
//!   `R`). Auto-selected only when `B` dwarfs `R`, where re-scanning a small
//!   `R` is cheaper than holding per-worker state for a huge `B`.
//!
//! Per-worker morsel/steal/merge counters are reported through
//! [`mdj_storage::WorkerStats`] when the context carries a
//! [`mdj_storage::ScanStats`], and surface in `EXPLAIN ANALYZE` output.

use crate::context::ExecContext;
use crate::error::{CoreError, Result};
use crate::governor::{self, panic_message, GrowthMeter, MemCharge};
use crate::mdjoin::{bind_aggs, check_no_duplicates, md_join_serial, metered_flags};
use crate::probe::ProbePlan;
use crate::vectorized::{md_join_vectorized, BatchProbe};
use crossbeam::deque::{Steal, Stealer, Worker};
use mdj_agg::{AggSpec, AggState};
use mdj_expr::Expr;
use mdj_storage::{ColumnarChunk, Relation, Row, Schema, Value, WorkerStats};
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Which relation the morsel executor splits into work units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MorselSide {
    /// Decide from the cardinalities (see [`choose_side`]).
    #[default]
    Auto,
    /// Morsels over `B`: memory-bounded, one scan of `R` per morsel.
    Base,
    /// Morsels over `R`: one logical scan, partial-state merge at the end.
    Detail,
}

/// Pick the partitioning side from the input cardinalities: `Detail` unless
/// `B` is much larger than `R` (≥ 4×), where per-worker full-`B` state would
/// dominate memory while re-scanning the small `R` stays cheap.
pub fn choose_side(b_rows: usize, r_rows: usize) -> MorselSide {
    if b_rows >= 4 * r_rows.max(1) {
        MorselSide::Base
    } else {
        MorselSide::Detail
    }
}

/// Cut `0..n` into `Range`s of at most `morsel` rows.
fn morsels(n: usize, morsel: usize) -> Vec<Range<usize>> {
    let morsel = morsel.max(1);
    (0..n)
        .step_by(morsel)
        .map(|start| start..(start + morsel).min(n))
        .collect()
}

/// Per-worker deques, their stealers, and each deque's seeded run of task
/// positions.
type Seeded<T> = (Vec<Worker<T>>, Vec<Stealer<T>>, Vec<Range<usize>>);

/// Build one deque per worker and seed each with a contiguous run of tasks
/// (contiguity keeps a worker's own morsels adjacent in memory; stealing only
/// breaks locality when the load is actually imbalanced).
fn seed_queues<T>(tasks: Vec<T>, threads: usize) -> Seeded<T> {
    let queues: Vec<Worker<T>> = (0..threads).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<T>> = queues.iter().map(Worker::stealer).collect();
    let n = tasks.len();
    let base = n / threads;
    let extra = n % threads;
    let mut runs = Vec::with_capacity(threads);
    let mut it = tasks.into_iter();
    for (i, q) in queues.iter().enumerate() {
        let start = runs.last().map_or(0, |run: &Range<usize>| run.end);
        let take = base + usize::from(i < extra);
        for task in it.by_ref().take(take) {
            q.push(task);
        }
        runs.push(start..start + take);
    }
    (queues, stealers, runs)
}

/// Pop the next task: own queue first, then steal round-robin from the other
/// workers (recording the steal).
fn next_task<T>(
    own: &Worker<T>,
    stealers: &[Stealer<T>],
    me: usize,
    stats: &mut WorkerStats,
) -> Option<T> {
    if let Some(task) = own.pop() {
        return Some(task);
    }
    let n = stealers.len();
    for k in 1..n {
        let victim = &stealers[(me + k) % n];
        loop {
            match victim.steal() {
                Steal::Success(task) => {
                    stats.steals += 1;
                    return Some(task);
                }
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    None
}

type States = Vec<Vec<Box<dyn AggState>>>;

/// Run one morsel's *pure* computation inside a panic-isolation boundary,
/// retrying up to `ctx.max_morsel_retries` times. The closure must be free of
/// externally visible side effects (no state mutation), so a retried attempt
/// cannot double-count work; callers apply the returned delta afterwards,
/// outside the boundary. After the retry budget is spent the panic surfaces
/// as a structured [`CoreError::MorselPanicked`] — never a poisoned or hung
/// run.
fn run_isolated<T>(ctx: &ExecContext, morsel: usize, f: impl Fn() -> Result<T>) -> Result<T> {
    let mut attempts: u32 = 0;
    loop {
        attempts += 1;
        match catch_unwind(AssertUnwindSafe(&f)) {
            Ok(result) => return result,
            Err(payload) => {
                if attempts > ctx.max_morsel_retries() {
                    return Err(CoreError::MorselPanicked {
                        morsel,
                        attempts,
                        message: panic_message(payload.as_ref()),
                    });
                }
                ctx.record_morsel_retry();
            }
        }
    }
}

/// Merge two partial state sets pairwise, attributing the merge to `stats`.
fn merge_states(mut acc: States, other: States, stats: &mut WorkerStats) -> Result<States> {
    stats.merges += 1;
    for (row_states, other_states) in acc.iter_mut().zip(other) {
        for (s, o) in row_states.iter_mut().zip(other_states) {
            s.merge(o.as_ref())?;
        }
    }
    Ok(acc)
}

/// Morsel-parallel MD-join. Splits the side chosen by `side` into
/// `ctx.morsel_size`-row work units scheduled across `threads` workers with
/// work stealing. Output equals [`md_join_serial`] row-for-row (same order).
pub(crate) fn md_join_morsel(
    b: &Relation,
    r: &Relation,
    l: &[AggSpec],
    theta: &Expr,
    threads: usize,
    side: MorselSide,
    ctx: &ExecContext,
) -> Result<Relation> {
    md_join_morsel_opts(b, r, l, theta, threads, side, ctx, false)
}

/// [`md_join_morsel`] with control over batched morsel evaluation. With
/// `batched`, each detail-side morsel is evaluated as one columnar batch
/// through [`BatchProbe`] (the morsel *is* the batch: it already bounds the
/// work unit to `ctx.morsel_size` rows), and each base-side morsel runs the
/// vectorized evaluator over its `B` fragment. Output and work accounting
/// are identical either way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn md_join_morsel_opts(
    b: &Relation,
    r: &Relation,
    l: &[AggSpec],
    theta: &Expr,
    threads: usize,
    side: MorselSide,
    ctx: &ExecContext,
    batched: bool,
) -> Result<Relation> {
    if threads == 0 {
        return Err(CoreError::BadConfig("thread count must be ≥ 1".into()));
    }
    match side {
        MorselSide::Auto => {
            let side = choose_side(b.len(), r.len());
            md_join_morsel_opts(b, r, l, theta, threads, side, ctx, batched)
        }
        MorselSide::Detail => morsel_detail(b, r, l, theta, threads, ctx, batched),
        MorselSide::Base => morsel_base(b, r, l, theta, threads, ctx, batched),
    }
}

/// A computed morsel's matches: `(base row, slot)` pairs and the slots'
/// aggregate input values.
type Matches = (Vec<(usize, usize)>, Vec<Value>);

/// One worker's seeded run of morsels and the full-`B` partial states they
/// fold into. Whoever computes a morsel (its owner or a thief), the deltas
/// apply in morsel order: a delta that arrives early waits in `pending`,
/// its bytes charged to the query's budget until it applies.
struct Segment {
    states: States,
    /// Id of the next morsel to apply.
    next: usize,
    /// One past the segment's last morsel id.
    end: usize,
    pending: BTreeMap<usize, (Matches, MemCharge)>,
}

/// A segment behind its lock, with the condition variable its waiting
/// thieves sleep on.
type SharedSegment = (Mutex<Segment>, Condvar);

/// Held by each detail-side worker. If the worker stops early (an error or
/// a panic), the morsel it holds never applies, so dropping the guard sets
/// `aborted` and wakes every waiting thief instead of leaving it waiting
/// for that morsel's turn.
struct AbortOnExit<'a> {
    aborted: &'a AtomicBool,
    segments: &'a [SharedSegment],
    finished: bool,
}

impl Drop for AbortOnExit<'_> {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        self.aborted.store(true, AtomicOrdering::SeqCst);
        for (lock, turn) in self.segments {
            // Taking the lock orders the store before any waiter's check.
            let _guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
            turn.notify_all();
        }
    }
}

/// Detail-side execution: morsels over `R`, full-`B` partial states per
/// segment, and a merge at the end. One logical scan of `R` is recorded.
///
/// Work stealing decides which worker computes a morsel, but not which
/// states it folds into or in what order: each seeded queue run is a
/// segment with its own states, its morsels apply in morsel order, and the
/// segments merge in segment order. The result therefore does not depend on
/// scheduling, so float aggregates are bit-identical from run to run.
///
/// A thief that computes a morsel ahead of its segment's turn buffers the
/// delta in `pending`, charged to the budget. When the budget cannot hold
/// it, the thief waits for the turn instead, so buffered deltas never exceed
/// the budget. Waiting cannot deadlock: queues hand out morsels in id order,
/// so a segment's next morsel is always held by a worker that can apply it.
fn morsel_detail(
    b: &Relation,
    r: &Relation,
    l: &[AggSpec],
    theta: &Expr,
    threads: usize,
    ctx: &ExecContext,
    batched: bool,
) -> Result<Relation> {
    ctx.check_interrupt()?;
    let bound = bind_aggs(l, r.schema(), ctx.registry())?;
    check_no_duplicates(b.schema(), &bound)?;
    let (plan, _index_charge) = ProbePlan::build_charged(b, r.schema(), theta, ctx)?;
    // Batched mode shares one read-only BatchProbe across workers; each
    // morsel materializes only the detail columns the probe actually reads
    // (aggregate inputs are deposited from the row form either way).
    let probe = if batched {
        let bp = BatchProbe::new(&plan, b);
        let mut needed = vec![false; r.schema().fields().len()];
        bp.collect_needed(&mut needed);
        Some((bp, needed))
    } else {
        None
    };

    let rows = r.rows();
    let tasks: Vec<(usize, Range<usize>)> = morsels(rows.len(), ctx.morsel_size())
        .into_iter()
        .enumerate()
        .collect();
    let (queues, stealers, runs) = seed_queues(tasks, threads);
    // Every segment keeps state for all of B: charge the full footprint per
    // segment, held until the merged result is built.
    let _state_charges = (0..threads)
        .map(|_| MemCharge::try_new(ctx, governor::state_bytes(b.len(), bound.len())))
        .collect::<Result<Vec<_>>>()?;
    let segments: Vec<SharedSegment> = runs
        .iter()
        .map(|run| {
            let segment = Segment {
                states: b
                    .iter()
                    .map(|_| bound.iter().map(|ba| ba.agg.init()).collect())
                    .collect(),
                next: run.start,
                end: run.end,
                pending: BTreeMap::new(),
            };
            (Mutex::new(segment), Condvar::new())
        })
        .collect();
    let aborted = AtomicBool::new(false);

    // One morsel's pure delta: each matched tuple deposits its aggregate
    // input values once (`n_aggs` values per slot), and `pairs` records which
    // base rows consume which slot. Computing the delta touches no shared
    // state, so the isolation boundary can retry it after a caught panic
    // without double-counting; the apply step below runs outside the
    // boundary, exactly once.
    // The third field reports whether a batched morsel fell back to scalar
    // probing anywhere (always `false` in scalar mode).
    type Delta = (Vec<(usize, usize)>, Vec<Value>, bool);
    let compute_delta = |id: usize, range: &Range<usize>| -> Result<Delta> {
        ctx.fault_on_morsel(id);
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut tuple_vals: Vec<Value> = Vec::new();
        if let Some((bp, needed)) = &probe {
            // Batched: the morsel is the batch. `matches_batch` yields
            // (local tuple, base row) pairs in tuple order with each tuple's
            // matches contiguous, so a slot opens exactly when the local
            // index changes.
            let chunk = ColumnarChunk::from_rows(rows, range.start, range.len(), needed);
            let mut bpairs: Vec<(u32, usize)> = Vec::new();
            let fell_back = bp.matches_batch(&chunk, rows, ctx, &mut bpairs)?;
            let mut slot = 0usize;
            let mut last: Option<u32> = None;
            for &(i, row_id) in &bpairs {
                if last != Some(i) {
                    if last.is_some() {
                        slot += 1;
                    }
                    last = Some(i);
                    let t = &rows[range.start + i as usize];
                    for ba in &bound {
                        tuple_vals.push(match ba.input_col {
                            Some(c) => t[c].clone(),
                            None => Value::Null,
                        });
                    }
                }
                pairs.push((row_id, slot));
            }
            return Ok((pairs, tuple_vals, fell_back));
        }
        let mut matches: Vec<usize> = Vec::new();
        let mut key_scratch: Vec<Value> = Vec::new();
        let mut slot = 0usize;
        for t in &rows[range.clone()] {
            plan.matches(b, t.values(), ctx, &mut matches, &mut key_scratch)?;
            if matches.is_empty() {
                continue;
            }
            for ba in &bound {
                tuple_vals.push(match ba.input_col {
                    Some(c) => t[c].clone(),
                    None => Value::Null,
                });
            }
            pairs.extend(matches.iter().map(|&row_id| (row_id, slot)));
            slot += 1;
        }
        Ok((pairs, tuple_vals, false))
    };

    let worker = |me: usize, own: Worker<(usize, Range<usize>)>| -> Result<WorkerStats> {
        let mut exit = AbortOnExit {
            aborted: &aborted,
            segments: &segments,
            finished: false,
        };
        let mut ws = WorkerStats::new(me);
        // Holistic aggregate growth is metered per worker against the shared
        // budget (the meter is inert without one).
        let mut meter = GrowthMeter::new(ctx);
        let metered = metered_flags(&bound, &meter);
        let mut apply = |states: &mut States, (pairs, tuple_vals): Matches| -> Result<()> {
            for &(row_id, slot) in &pairs {
                for (j, state) in states[row_id].iter_mut().enumerate() {
                    let v = &tuple_vals[slot * bound.len() + j];
                    if metered[j] {
                        let before = state.heap_bytes();
                        state.update(v)?;
                        meter.charge(state.heap_bytes().saturating_sub(before))?;
                    } else {
                        state.update(v)?;
                    }
                }
            }
            Ok(())
        };
        'tasks: while let Some((id, range)) = next_task(&own, &stealers, me, &mut ws) {
            ctx.check_interrupt()?;
            ws.morsels += 1;
            ws.tuples += range.len() as u64;
            let (pairs, tuple_vals, fell_back) =
                run_isolated(ctx, id, || compute_delta(id, &range))?;
            if batched {
                ctx.record_batch();
                if fell_back {
                    ctx.record_batch_fallback();
                }
            }
            let n = (pairs.len() * bound.len()) as u64;
            ctx.record_updates(n);
            ws.updates += n;
            let (lock, turn) = &segments[runs.partition_point(|run| run.end <= id)];
            let bytes = std::mem::size_of_val(pairs.as_slice())
                + std::mem::size_of_val(tuple_vals.as_slice());
            let mut guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
            while guard.next != id {
                if let Ok(charge) = MemCharge::try_new(ctx, bytes) {
                    guard.pending.insert(id, ((pairs, tuple_vals), charge));
                    continue 'tasks;
                }
                if aborted.load(AtomicOrdering::SeqCst) {
                    // The worker that stopped reports the error.
                    break 'tasks;
                }
                guard = turn.wait(guard).unwrap_or_else(PoisonError::into_inner);
            }
            let segment = &mut *guard;
            apply(&mut segment.states, (pairs, tuple_vals))?;
            segment.next += 1;
            while let Some((matches, _charge)) = segment.pending.remove(&segment.next) {
                apply(&mut segment.states, matches)?;
                segment.next += 1;
            }
            turn.notify_all();
        }
        exit.finished = true;
        Ok(ws)
    };

    ctx.record_scan(r.len() as u64);
    let results: Vec<Result<WorkerStats>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = queues
            .into_iter()
            .enumerate()
            .map(|(me, own)| {
                let worker = &worker;
                scope.spawn(move |_| worker(me, own))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(worker, h)| {
                h.join().unwrap_or_else(|payload| {
                    Err(CoreError::WorkerPanicked {
                        worker,
                        message: panic_message(payload.as_ref()),
                    })
                })
            })
            .collect()
    })
    .map_err(|payload| {
        CoreError::Internal(format!(
            "crossbeam scope failed: {}",
            panic_message(payload.as_ref())
        ))
    })?;
    let mut workers = results.into_iter().collect::<Result<Vec<WorkerStats>>>()?;

    // Merge the segments in order; the merges are the first worker's.
    let mut total: Option<States> = None;
    for (lock, _) in segments {
        let segment = lock.into_inner().unwrap_or_else(PoisonError::into_inner);
        if segment.next != segment.end || !segment.pending.is_empty() {
            return Err(CoreError::Internal(format!(
                "morsel segment stopped at {} of {} with {} deltas unapplied",
                segment.next,
                segment.end,
                segment.pending.len()
            )));
        }
        total = Some(match total {
            None => segment.states,
            Some(acc) => merge_states(acc, segment.states, &mut workers[0])?,
        });
    }
    let total = total.ok_or_else(|| CoreError::Internal("morsel run without segments".into()))?;
    for ws in workers {
        ctx.record_worker(ws);
    }

    let mut fields = b.schema().fields().to_vec();
    fields.extend(bound.iter().map(|ba| ba.output.clone()));
    let mut out = Relation::empty(Schema::new(fields));
    for (row, row_states) in b.iter().zip(total) {
        let mut vals = row.values().to_vec();
        vals.extend(row_states.iter().map(|s| s.finalize()));
        out.push_unchecked(Row::new(vals));
    }
    Ok(out)
}

/// Base-side execution: morsels over `B`; each morsel runs a full serial
/// MD-join of its `B` fragment against `R` (scanning `R` once per morsel,
/// recorded as such) and deposits its output rows under the morsel's slot so
/// concatenation reproduces `B`'s row order. No state merging.
fn morsel_base(
    b: &Relation,
    r: &Relation,
    l: &[AggSpec],
    theta: &Expr,
    threads: usize,
    ctx: &ExecContext,
    batched: bool,
) -> Result<Relation> {
    let schema = crate::mdjoin::output_schema(b.schema(), r.schema(), l, ctx.registry())?;
    let b_rows = b.rows();
    let tasks: Vec<(usize, Range<usize>)> = morsels(b_rows.len(), ctx.morsel_size())
        .into_iter()
        .enumerate()
        .collect();
    let (queues, stealers, _) = seed_queues(tasks, threads);
    let slots: Mutex<Vec<(usize, Vec<Row>)>> = Mutex::new(Vec::new());

    let worker = |me: usize, own: Worker<(usize, Range<usize>)>| -> Result<()> {
        let mut ws = WorkerStats::new(me);
        let mut done: Vec<(usize, Vec<Row>)> = Vec::new();
        while let Some((slot, range)) = next_task(&own, &stealers, me, &mut ws) {
            ctx.check_interrupt()?;
            ws.morsels += 1;
            ws.tuples += range.len() as u64;
            let frag = Relation::from_rows(b.schema().clone(), b_rows[range].to_vec());
            // A base-side morsel is already pure — an independent MD-join of
            // its fragment, deposited only on success — so the whole join sits
            // inside the isolation boundary and retries are side-effect-free.
            let piece = run_isolated(ctx, slot, || {
                ctx.fault_on_morsel(slot);
                if batched {
                    md_join_vectorized(&frag, r, l, theta, ctx)
                } else {
                    md_join_serial(&frag, r, l, theta, ctx)
                }
            })?;
            done.push((slot, piece.into_rows()));
        }
        slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(done);
        ctx.record_worker(ws);
        Ok(())
    };

    ctx.check_interrupt()?;
    let results: Vec<Result<()>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = queues
            .into_iter()
            .enumerate()
            .map(|(me, own)| {
                let worker = &worker;
                scope.spawn(move |_| worker(me, own))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(worker, h)| {
                h.join().unwrap_or_else(|payload| {
                    Err(CoreError::WorkerPanicked {
                        worker,
                        message: panic_message(payload.as_ref()),
                    })
                })
            })
            .collect()
    })
    .map_err(|payload| {
        CoreError::Internal(format!(
            "crossbeam scope failed: {}",
            panic_message(payload.as_ref())
        ))
    })?;
    results.into_iter().collect::<Result<Vec<()>>>()?;

    let mut pieces = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
    pieces.sort_by_key(|(slot, _)| *slot);
    let mut out = Relation::empty(schema);
    for (_, rows) in pieces {
        for row in rows {
            out.push_unchecked(row);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdj_expr::builder::*;
    use mdj_storage::{DataType, ScanStats};
    use std::sync::Arc;

    fn sales(n: i64) -> Relation {
        let schema = Schema::from_pairs(&[("cust", DataType::Int), ("sale", DataType::Int)]);
        Relation::from_rows(
            schema,
            (0..n).map(|i| Row::from_values([i % 13, i])).collect(),
        )
    }

    fn specs() -> Vec<AggSpec> {
        vec![
            AggSpec::on_column("sum", "sale"),
            AggSpec::on_column("avg", "sale"),
            AggSpec::count_star(),
            AggSpec::on_column("min", "sale"),
            AggSpec::on_column("max", "sale"),
        ]
    }

    #[test]
    fn detail_morsels_equal_serial_in_order() {
        let s = sales(500);
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let direct = md_join_serial(&b, &s, &specs(), &theta, &ExecContext::new()).unwrap();
        for threads in [1, 2, 8] {
            for morsel in [1, 7, 4096] {
                let ctx = ExecContext::new().with_morsel_size(morsel);
                let out =
                    md_join_morsel(&b, &s, &specs(), &theta, threads, MorselSide::Detail, &ctx)
                        .unwrap();
                assert_eq!(
                    direct.rows(),
                    out.rows(),
                    "threads={threads} morsel={morsel}"
                );
            }
        }
    }

    /// A detail-side run whose first morsel sleeps (and then panics, if
    /// `panics` is set), so the other worker steals and computes the rest
    /// of that segment ahead of its turn. Returns the serial answer, the
    /// run's result and the budget tracker's peak.
    #[cfg(feature = "fault-injection")]
    fn stalled_segment_run(budget: usize, panics: u64) -> (Relation, Result<Relation>, u64) {
        let r = sales(4000);
        let b = r.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let aggs = [AggSpec::on_column("sum", "sale")];
        let serial = md_join_serial(&b, &r, &aggs, &theta, &ExecContext::new()).unwrap();
        let fault = crate::fault::FaultInjector::new(7)
            .period(1)
            .slow_morsels(1, std::time::Duration::from_millis(300))
            .panics(panics);
        let ctx = ExecContext::new()
            .with_morsel_size(50)
            .with_morsel_retries(0)
            .with_budget_bytes(budget)
            .with_fault_injector(Arc::new(fault));
        let out = md_join_morsel(&b, &r, &aggs, &theta, 2, MorselSide::Detail, &ctx);
        (serial, out, ctx.memory().unwrap().peak())
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn early_deltas_are_charged_to_the_budget() {
        let (serial, out, peak) = stalled_segment_run(1 << 30, 0);
        assert_eq!(out.unwrap().rows(), serial.rows());
        // 13 base rows, 80 morsels of 50 tuples that match one row each:
        // the stalled segment's 39 later deltas pend at once.
        let states = 2 * governor::state_bytes(13, 1);
        let delta = 50 * (std::mem::size_of::<(usize, usize)>() + std::mem::size_of::<Value>());
        let pending = (states + 39 * delta) as u64;
        assert!(
            peak >= pending,
            "peak {peak} < {pending}: pending deltas were not charged"
        );
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn early_deltas_wait_for_their_turn_when_the_budget_is_full() {
        // Room for the states, the index and a couple of deltas only: the
        // thief waits for the stalled owner instead of failing the query.
        let (serial, out, _) = stalled_segment_run(12 * 1024, 0);
        assert_eq!(out.unwrap().rows(), serial.rows());
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn a_failed_owner_wakes_the_waiting_thief() {
        // The stalled morsel panics after the thief has started waiting for
        // its turn: the run must report the panic, not hang.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(stalled_segment_run(12 * 1024, 1).1));
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the waiting thief never woke");
        assert!(
            matches!(out, Err(CoreError::MorselPanicked { .. })),
            "{out:?}"
        );
    }

    #[test]
    fn detail_morsel_float_sums_do_not_depend_on_scheduling() {
        // Float sums round differently in every grouping of their inputs,
        // so any dependence on which worker ran which morsel shows up here
        // as a last-bit difference between repeats.
        let schema = Schema::from_pairs(&[("cust", DataType::Int), ("sale", DataType::Float)]);
        let r = Relation::from_rows(
            schema,
            (0..4000i64)
                .map(|i| {
                    Row::from_values(vec![Value::Int(i % 7), Value::Float(0.1 * (i % 97) as f64)])
                })
                .collect(),
        );
        let b = r.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let aggs = [
            AggSpec::on_column("sum", "sale"),
            AggSpec::on_column("avg", "sale"),
        ];
        let ctx = ExecContext::new().with_morsel_size(7);
        let run = || md_join_morsel(&b, &r, &aggs, &theta, 4, MorselSide::Detail, &ctx).unwrap();
        let first = run();
        for _ in 0..20 {
            assert_eq!(run().rows(), first.rows());
        }
    }

    #[test]
    fn base_morsels_equal_serial_in_order() {
        let s = sales(300);
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let direct = md_join_serial(&b, &s, &specs(), &theta, &ExecContext::new()).unwrap();
        for threads in [1, 3, 8] {
            for morsel in [1, 5, 4096] {
                let ctx = ExecContext::new().with_morsel_size(morsel);
                let out = md_join_morsel(&b, &s, &specs(), &theta, threads, MorselSide::Base, &ctx)
                    .unwrap();
                assert_eq!(
                    direct.rows(),
                    out.rows(),
                    "threads={threads} morsel={morsel}"
                );
            }
        }
    }

    #[test]
    fn batched_morsels_equal_serial_on_both_sides() {
        let s = sales(700);
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let direct = md_join_serial(&b, &s, &specs(), &theta, &ExecContext::new()).unwrap();
        for side in [MorselSide::Detail, MorselSide::Base] {
            for threads in [1, 4] {
                let stats = Arc::new(ScanStats::new());
                let ctx = ExecContext::new()
                    .with_morsel_size(64)
                    .with_stats(stats.clone());
                let out = md_join_morsel_opts(&b, &s, &specs(), &theta, threads, side, &ctx, true)
                    .unwrap();
                assert_eq!(direct.rows(), out.rows(), "{side:?} threads={threads}");
                assert!(stats.batches() > 0, "{side:?} threads={threads}");
            }
        }
    }

    #[test]
    fn batched_work_accounting_matches_scalar_morsels() {
        let s = sales(900);
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let scalar = Arc::new(ScanStats::new());
        let sctx = ExecContext::new()
            .with_morsel_size(64)
            .with_stats(scalar.clone());
        md_join_morsel(&b, &s, &specs(), &theta, 4, MorselSide::Detail, &sctx).unwrap();
        let batched = Arc::new(ScanStats::new());
        let bctx = ExecContext::new()
            .with_morsel_size(64)
            .with_stats(batched.clone());
        md_join_morsel_opts(&b, &s, &specs(), &theta, 4, MorselSide::Detail, &bctx, true).unwrap();
        assert_eq!(scalar.scans(), batched.scans());
        assert_eq!(scalar.tuples_scanned(), batched.tuples_scanned());
        assert_eq!(scalar.probes(), batched.probes());
        assert_eq!(scalar.updates(), batched.updates());
        assert_eq!(batched.batches(), 900u64.div_ceil(64));
        assert_eq!(batched.batch_fallbacks(), 0);
        assert_eq!(scalar.batches(), 0);
    }

    #[test]
    fn holistic_aggregates_survive_the_merge() {
        let s = sales(300);
        let b = s.distinct_on(&["cust"]).unwrap();
        let l = [
            AggSpec::on_column("median", "sale"),
            AggSpec::on_column("mode", "cust"),
            AggSpec::on_column("count_distinct", "sale"),
        ];
        let theta = eq(col_b("cust"), col_r("cust"));
        let direct = md_join_serial(&b, &s, &l, &theta, &ExecContext::new()).unwrap();
        let ctx = ExecContext::new().with_morsel_size(16);
        let out = md_join_morsel(&b, &s, &l, &theta, 4, MorselSide::Detail, &ctx).unwrap();
        assert!(direct.same_multiset(&out));
    }

    #[test]
    fn empty_inputs() {
        let s = sales(20);
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let l = [AggSpec::count_star()];
        for side in [MorselSide::Base, MorselSide::Detail] {
            let empty_b = Relation::empty(b.schema().clone());
            let out =
                md_join_morsel(&empty_b, &s, &l, &theta, 4, side, &ExecContext::new()).unwrap();
            assert!(out.is_empty());
            let empty_r = Relation::empty(s.schema().clone());
            let out =
                md_join_morsel(&b, &empty_r, &l, &theta, 4, side, &ExecContext::new()).unwrap();
            assert_eq!(out.len(), b.len());
            assert!(out.rows().iter().all(|r| r[1] == Value::Int(0)));
        }
    }

    #[test]
    fn zero_threads_rejected() {
        let s = sales(10);
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let err = md_join_morsel(
            &b,
            &s,
            &[AggSpec::count_star()],
            &theta,
            0,
            MorselSide::Auto,
            &ExecContext::new(),
        );
        assert!(matches!(err, Err(CoreError::BadConfig(_))));
    }

    #[test]
    fn worker_stats_recorded_and_merge_counts_add_up() {
        let s = sales(1000);
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_morsel_size(64)
            .with_stats(stats.clone());
        md_join_morsel(
            &b,
            &s,
            &[AggSpec::count_star()],
            &theta,
            4,
            MorselSide::Detail,
            &ctx,
        )
        .unwrap();
        let workers = stats.workers();
        assert_eq!(workers.len(), 4);
        let morsels: u64 = workers.iter().map(|w| w.morsels).sum();
        assert_eq!(morsels, 1000u64.div_ceil(64)); // every morsel ran exactly once
        let tuples: u64 = workers.iter().map(|w| w.tuples).sum();
        assert_eq!(tuples, 1000);
        let merges: u64 = workers.iter().map(|w| w.merges).sum();
        assert_eq!(merges, 3); // t workers → t−1 pairwise merges
        assert_eq!(stats.scans(), 1); // detail side: one logical scan of R
    }

    #[test]
    fn base_side_scan_accounting() {
        let s = sales(100);
        let b = s.distinct_on(&["cust"]).unwrap(); // 13 rows
        let theta = eq(col_b("cust"), col_r("cust"));
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_morsel_size(5)
            .with_stats(stats.clone());
        md_join_morsel(
            &b,
            &s,
            &[AggSpec::count_star()],
            &theta,
            2,
            MorselSide::Base,
            &ctx,
        )
        .unwrap();
        assert_eq!(stats.scans(), 3); // ⌈13/5⌉ morsels, one R scan each
        assert_eq!(stats.tuples_scanned(), 300);
    }

    #[test]
    fn auto_side_selection() {
        assert_eq!(choose_side(100, 1000), MorselSide::Detail);
        assert_eq!(choose_side(1000, 1000), MorselSide::Detail);
        assert_eq!(choose_side(4000, 1000), MorselSide::Base);
        assert_eq!(choose_side(10, 0), MorselSide::Base);
        assert_eq!(choose_side(0, 0), MorselSide::Detail);
    }

    #[test]
    fn stealing_rebalances_a_skewed_load() {
        // Zipf-ish skew: every tuple matches base row 0's heavy probe; make
        // worker 0's seeded morsels vastly more expensive by pairing a
        // nested-loop probe with a skewed key distribution, then check the
        // other workers steal.
        let schema = Schema::from_pairs(&[("cust", DataType::Int), ("sale", DataType::Int)]);
        let n = 4000i64;
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                // First half: key 0 (expensive, matches the hot base row);
                // placed contiguously so the seeded split is imbalanced.
                let key = if i < n / 2 { 0 } else { i % 50 };
                Row::from_values([key, i])
            })
            .collect();
        let s = Relation::from_rows(schema, rows);
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_morsel_size(16)
            .with_stats(stats.clone());
        let out = md_join_morsel(
            &b,
            &s,
            &[AggSpec::count_star()],
            &theta,
            8,
            MorselSide::Detail,
            &ctx,
        )
        .unwrap();
        assert_eq!(out.len(), b.len());
        let workers = stats.workers();
        let morsels: u64 = workers.iter().map(|w| w.morsels).sum();
        assert_eq!(morsels, 4000u64.div_ceil(16));
    }
}
