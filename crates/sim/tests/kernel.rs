//! Integration tests for the simulation kernel: scheduling, lazy clocks,
//! suspension/waking, kill semantics, determinism, deadlock detection, and
//! run reports pinned to recorded values.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ftmpi_sim::{
    CandidateKind, DataEvent, PrescribedPolicy, ProcessExit, Reply, SchedulePolicy, SeededPolicy,
    Sim, SimDuration, SimError, SimTime,
};

#[test]
fn empty_simulation_completes_at_time_zero() {
    let mut sim = Sim::new();
    let report = sim.run().unwrap();
    assert_eq!(report.final_time, SimTime::ZERO);
    assert_eq!(report.events_executed, 0);
}

#[test]
fn scheduled_closures_run_in_time_order() {
    let mut sim = Sim::new();
    let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    for &t in &[30u64, 10, 20] {
        let log = Rc::clone(&log);
        sim.schedule(SimTime::from_nanos(t), move |sc| {
            log.borrow_mut().push(sc.now().as_nanos());
        });
    }
    let report = sim.run().unwrap();
    assert_eq!(*log.borrow(), vec![10, 20, 30]);
    assert_eq!(report.final_time, SimTime::from_nanos(30));
}

#[test]
fn lazy_compute_advances_virtual_time_without_events() {
    let mut sim = Sim::new();
    sim.spawn("computer", |mut ctx| async move {
        ctx.advance(SimDuration::from_secs(100));
        ctx.sleep_until_local().await;
    });
    let report = sim.run().unwrap();
    assert_eq!(report.final_time, SimTime::from_nanos(100_000_000_000));
    // Spawn resume + one sleep round-trip: compute itself cost no events.
    assert!(
        report.events_executed <= 4,
        "got {}",
        report.events_executed
    );
}

#[test]
fn sleep_interleaves_processes_deterministically() {
    let mut sim = Sim::new();
    let log: Rc<RefCell<Vec<(String, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    for (name, step) in [("a", 3u64), ("b", 5u64)] {
        let log = Rc::clone(&log);
        sim.spawn(name, move |mut ctx| async move {
            for _ in 0..3 {
                ctx.sleep(SimDuration::from_secs(step)).await;
                log.borrow_mut()
                    .push((ctx.name().to_string(), ctx.now().as_nanos() / 1_000_000_000));
            }
        });
    }
    sim.run().unwrap();
    let got = log.borrow().clone();
    let expect = vec![
        ("a".to_string(), 3),
        ("b".to_string(), 5),
        ("a".to_string(), 6),
        ("a".to_string(), 9),
        ("b".to_string(), 10),
        ("b".to_string(), 15),
    ];
    assert_eq!(got, expect);
}

/// The pid of a posted op: every data event in these tests is one.
fn op_pid(ev: DataEvent) -> ftmpi_sim::Pid {
    let DataEvent::Op(pid) = ev else {
        panic!("unexpected data event {ev:?}");
    };
    pid
}

/// A tiny one-slot mailbox model: demonstrates (and tests) the
/// suspend/Reply/complete protocol between processes and model state.
#[derive(Default)]
struct Mailbox {
    value: Option<u64>,
    waiter: Option<Reply<u64>>,
}

#[test]
fn reply_wakes_parked_process_with_value() {
    let mut sim = Sim::new();
    let mbox: Rc<RefCell<Mailbox>> = Rc::new(RefCell::new(Mailbox::default()));

    let mb = Rc::clone(&mbox);
    sim.set_data_handler(move |sc, ev| {
        let reply = Reply::new(op_pid(ev));
        let mut m = mb.borrow_mut();
        if let Some(v) = m.value.take() {
            reply.complete(sc, v);
        } else {
            m.waiter = Some(reply);
        }
    });
    sim.spawn("receiver", move |mut ctx| async move {
        let got: u64 = ctx.post_op().await;
        assert_eq!(got, 42);
        assert_eq!(ctx.now(), SimTime::from_nanos(7));
    });

    let mb = Rc::clone(&mbox);
    sim.schedule(SimTime::from_nanos(7), move |sc| {
        let mut m = mb.borrow_mut();
        if let Some(w) = m.waiter.take() {
            w.complete(sc, 42);
        } else {
            m.value = Some(42);
        }
    });

    let report = sim.run().unwrap();
    assert!(report
        .exits
        .iter()
        .all(|(_, _, e)| *e == ProcessExit::Normal));
}

#[test]
fn complete_at_delays_the_wake() {
    let mut sim = Sim::new();
    sim.set_data_handler(|sc, ev| {
        let at = sc.now() + SimDuration::from_secs(9);
        Reply::<u32>::new(op_pid(ev)).complete_at(sc, at, 5);
    });
    sim.spawn("sleeper", |mut ctx| async move {
        let v: u32 = ctx.post_op().await;
        assert_eq!(v, 5);
        assert_eq!(ctx.now().as_secs_f64(), 9.0);
    });
    let report = sim.run().unwrap();
    assert_eq!(report.final_time, SimTime::from_nanos(9_000_000_000));
}

#[test]
fn killed_process_unwinds_and_reports_killed_exit() {
    let mut sim = Sim::new();
    let flag = Rc::new(Cell::new(false));
    let f2 = Rc::clone(&flag);
    let victim = sim.spawn("victim", move |mut ctx| async move {
        ctx.sleep(SimDuration::from_secs(1_000_000)).await;
        f2.set(true); // must never run
    });
    sim.schedule(SimTime::from_nanos(5), move |sc| sc.kill(victim));
    let report = sim.run().unwrap();
    assert!(!flag.get());
    let exit = report
        .exits
        .iter()
        .find(|(pid, _, _)| *pid == victim)
        .map(|(_, _, e)| e.clone())
        .unwrap();
    assert_eq!(exit, ProcessExit::Killed);
    // The pending sleep-wake must not resurrect the process.
    assert_eq!(report.final_time, SimTime::from_nanos(5));
}

#[test]
fn kill_is_noop_for_finished_process() {
    let mut sim = Sim::new();
    let p = sim.spawn("quick", |_ctx| async {});
    sim.schedule(SimTime::from_nanos(100), move |sc| {
        sc.kill(p); // must not panic or hang
    });
    let report = sim.run().unwrap();
    // The process finished at time zero; the late kill leaves its one
    // exit record untouched.
    let exits: Vec<_> = report.exits.iter().filter(|(q, _, _)| *q == p).collect();
    assert_eq!(exits.len(), 1);
    assert_eq!(exits[0].2, ProcessExit::Normal);
}

#[test]
fn process_panic_surfaces_as_error() {
    let mut sim = Sim::new();
    sim.spawn("buggy", |_ctx| async { panic!("boom") });
    match sim.run() {
        Err(SimError::ProcessPanicked { name, message }) => {
            assert_eq!(name, "buggy");
            assert!(message.contains("boom"));
        }
        other => panic!("expected panic error, got {other:?}"),
    }
}

#[test]
fn unwakeable_process_is_reported_as_deadlock() {
    let mut sim = Sim::new();
    // Suspend with a reply nobody will ever complete: the handler drops it.
    sim.set_data_handler(|_sc, _ev| {});
    sim.spawn("stuck", |mut ctx| async move {
        ctx.post_op::<()>().await;
    });
    match sim.run() {
        Err(SimError::Deadlock(info)) => {
            assert_eq!(info.parked, vec!["stuck".to_string()]);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn max_time_stops_the_run() {
    let mut sim = Sim::new();
    sim.set_max_time(SimTime::from_nanos(50));
    sim.spawn("late", |mut ctx| async move {
        ctx.sleep(SimDuration::from_nanos(200)).await;
        panic!("must not run past the horizon");
    });
    let report = sim.run().unwrap();
    assert!(report.stopped);
    assert!(report.final_time <= SimTime::from_nanos(200));
}

#[test]
fn processes_spawned_from_events_run() {
    let mut sim = Sim::new();
    let flag = Rc::new(Cell::new(false));
    let f2 = Rc::clone(&flag);
    sim.schedule(SimTime::from_nanos(10), move |sc| {
        let f3 = Rc::clone(&f2);
        sc.spawn("child", move |mut ctx| async move {
            ctx.sleep(SimDuration::from_nanos(5)).await;
            f3.set(true);
        });
    });
    let report = sim.run().unwrap();
    assert!(flag.get());
    assert_eq!(report.final_time, SimTime::from_nanos(15));
}

#[test]
fn identical_runs_produce_identical_reports() {
    fn run_once() -> (u64, u64) {
        let mut sim = Sim::new();
        for i in 0..10u64 {
            sim.spawn(format!("p{i}"), move |mut ctx| async move {
                for k in 0..5 {
                    ctx.sleep(SimDuration::from_nanos(1 + (i * 7 + k) % 13))
                        .await;
                }
            });
        }
        let report = sim.run().unwrap();
        (report.final_time.as_nanos(), report.events_executed)
    }
    assert_eq!(run_once(), run_once());
}

#[test]
fn trace_collects_lifecycle_events() {
    let mut sim = Sim::new();
    sim.enable_trace();
    sim.spawn("traced", |mut ctx| async move {
        ctx.sleep(SimDuration::from_nanos(3)).await
    });
    let report = sim.run().unwrap();
    assert!(report
        .trace
        .iter()
        .any(|e| matches!(e.kind, ftmpi_sim::TraceKind::Spawn)));
    assert!(report
        .trace
        .iter()
        .any(|e| matches!(e.kind, ftmpi_sim::TraceKind::Exit)));
}

#[test]
fn many_processes_scale() {
    let mut sim = Sim::new();
    let counter = Rc::new(RefCell::new(0u64));
    for i in 0..600 {
        let c = Rc::clone(&counter);
        sim.spawn(format!("w{i}"), move |mut ctx| async move {
            ctx.sleep(SimDuration::from_nanos(i)).await;
            *c.borrow_mut() += 1;
        });
    }
    sim.run().unwrap();
    assert_eq!(*counter.borrow(), 600);
}

/// The kernel must host far more processes than any thread pool could:
/// 50k sleepers complete on the one kernel thread (the scale_bench binary
/// exercises the full 10⁵-rank workload).
#[test]
fn kernel_hosts_tens_of_thousands_of_processes() {
    let mut sim = Sim::new();
    let counter = Rc::new(RefCell::new(0u64));
    for i in 0..50_000u64 {
        let c = Rc::clone(&counter);
        sim.spawn(format!("w{i}"), move |mut ctx| async move {
            ctx.sleep(SimDuration::from_nanos(1 + i % 97)).await;
            *c.borrow_mut() += 1;
        });
    }
    sim.run().unwrap();
    assert_eq!(*counter.borrow(), 50_000);
}

/// Kill/respawn churn: pids stay sequential and are never reused, killed
/// pids keep resolving (as not-alive) instead of aliasing later processes,
/// and replacements spawned after kills get fresh slots. This is the access
/// pattern the dense process table must support.
#[test]
fn kill_respawn_churn_keeps_pids_distinct() {
    let mut sim = Sim::new();
    let finished: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let mut pids = Vec::new();
    for i in 0..8u64 {
        let f = Rc::clone(&finished);
        pids.push(sim.spawn(format!("gen0-{i}"), move |mut ctx| async move {
            ctx.sleep(SimDuration::from_secs(10)).await;
            f.borrow_mut().push(i);
        }));
    }
    // Allocation is strictly increasing (pids are sequential, never reused).
    assert!(pids.windows(2).all(|w| w[0] < w[1]));

    // Kill the odd pids mid-run, then spawn replacements from the event;
    // their pids must continue the sequence, not reuse the dead slots.
    let victims: Vec<_> = pids.iter().copied().skip(1).step_by(2).collect();
    let survivors: Vec<_> = pids.iter().copied().step_by(2).collect();
    let v2 = victims.clone();
    let f = Rc::clone(&finished);
    sim.schedule(SimTime::from_nanos(5), move |sc| {
        for pid in &v2 {
            sc.kill(*pid);
            sc.kill(*pid); // double kill must stay a no-op
        }
        for (k, pid) in v2.iter().enumerate() {
            let f = f.clone();
            let new = sc.spawn(format!("gen1-{k}"), move |mut ctx| async move {
                ctx.sleep(SimDuration::from_secs(1)).await;
                f.borrow_mut().push(100 + k as u64);
            });
            assert!(new > *pid, "pid {new} reused or preceded {pid}");
        }
    });
    let report = sim.run().unwrap();
    for pid in &victims {
        let exit = report
            .exits
            .iter()
            .find(|(p, _, _)| p == pid)
            .map(|(_, _, e)| e.clone());
        assert_eq!(exit, Some(ProcessExit::Killed), "{pid}");
    }
    for pid in &survivors {
        let exit = report
            .exits
            .iter()
            .find(|(p, _, _)| p == pid)
            .map(|(_, _, e)| e.clone());
        assert_eq!(exit, Some(ProcessExit::Normal), "{pid}");
    }
    let mut done = finished.borrow().clone();
    done.sort_unstable();
    assert_eq!(done, vec![0, 2, 4, 6, 100, 101, 102, 103]);
}

/// Killing with tracing disabled records nothing; killing with tracing
/// enabled must record the event. Both paths must agree on semantics.
#[test]
fn kill_traces_only_when_tracing_enabled() {
    for tracing in [false, true] {
        let mut sim = Sim::new();
        if tracing {
            sim.enable_trace();
        }
        let victim = sim.spawn("victim", |mut ctx| async move {
            ctx.sleep(SimDuration::from_secs(5)).await
        });
        sim.schedule(SimTime::from_nanos(3), move |sc| sc.kill(victim));
        let report = sim.run().unwrap();
        let kills = report
            .trace
            .iter()
            .filter(|e| matches!(e.kind, ftmpi_sim::TraceKind::Kill))
            .count();
        assert_eq!(kills, usize::from(tracing));
        assert!(report
            .exits
            .iter()
            .any(|(p, _, e)| *p == victim && *e == ProcessExit::Killed));
    }
}

#[test]
fn max_time_never_advances_past_the_horizon() {
    let mut sim = Sim::new();
    sim.set_max_time(SimTime::from_nanos(50));
    sim.schedule(SimTime::from_nanos(200), |_sc| {
        panic!("must not run past the horizon");
    });
    let report = sim.run().unwrap();
    assert!(report.stopped);
    assert!(
        report.final_time <= SimTime::from_nanos(50),
        "clock advanced past max_time: {:?}",
        report.final_time
    );
}

/// A killed process's wake past the horizon is stale: it must neither stop
/// the run nor hide a deadlock. With another process parked forever, the
/// queue drains and the run reports the deadlock at the kill's instant —
/// with or without a schedule policy.
#[test]
fn stale_wake_past_the_horizon_is_dropped_under_a_policy_too() {
    let run = |policy: Option<Box<dyn SchedulePolicy>>| {
        let mut sim = Sim::new();
        if let Some(p) = policy {
            sim.set_schedule_policy(p);
        }
        sim.set_max_time(SimTime::from_nanos(50));
        let sleeper = sim.spawn("sleeper", |mut ctx| async move {
            ctx.post_op::<()>().await;
        });
        sim.spawn("stuck", |mut ctx| async move {
            ctx.post_op::<()>().await;
        });
        // The sleeper's op is answered at t=100; the stuck one's never.
        sim.set_data_handler(move |sc, ev| {
            let pid = op_pid(ev);
            if pid == sleeper {
                Reply::new(pid).complete_at(sc, SimTime::from_nanos(100), ());
            }
        });
        sim.schedule(SimTime::from_nanos(10), move |sc| sc.kill(sleeper));
        sim.run()
    };
    let policies: [(&str, Option<Box<dyn SchedulePolicy>>); 3] = [
        ("none", None),
        ("prescribed", Some(Box::new(PrescribedPolicy::new(vec![])))),
        ("seeded", Some(Box::new(SeededPolicy::new(7)))),
    ];
    for (label, policy) in policies {
        match run(policy) {
            Err(SimError::Deadlock(info)) => {
                assert_eq!(info.parked, ["stuck"], "{label}");
                assert_eq!(info.time, SimTime::from_nanos(10), "{label}");
            }
            other => panic!("{label}: expected the deadlock, got {other:?}"),
        }
    }
}

/// Run six laneless closures — four tied at t=10, one each at 5 and 20 —
/// under `seed` (or canonically), returning `(time, index)` in run order.
fn laneless_order(seed: Option<u64>) -> Vec<(u64, usize)> {
    let mut sim = Sim::new();
    if let Some(s) = seed {
        sim.set_schedule_policy(Box::new(SeededPolicy::new(s)));
    }
    let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::default();
    for (i, t) in [10u64, 5, 10, 10, 20, 10].into_iter().enumerate() {
        let log = Rc::clone(&log);
        sim.schedule(SimTime::from_nanos(t), move |sc| {
            log.borrow_mut().push((sc.now().as_nanos(), i));
        });
    }
    sim.run().unwrap();
    Rc::try_unwrap(log).unwrap().into_inner()
}

/// A seed reorders only within an instant, and the same seed reproduces
/// the same order.
#[test]
fn seeded_policy_permutes_only_same_time_events() {
    let canonical = laneless_order(None);
    assert_eq!(
        canonical,
        [(5, 1), (10, 0), (10, 2), (10, 3), (10, 5), (20, 4)],
        "the canonical tie order is scheduling order"
    );
    let times: Vec<u64> = canonical.iter().map(|&(t, _)| t).collect();
    let mut reordered = false;
    for seed in 0..32 {
        let perturbed = laneless_order(Some(seed));
        assert_eq!(perturbed, laneless_order(Some(seed)), "seed {seed}");
        let got: Vec<u64> = perturbed.iter().map(|&(t, _)| t).collect();
        assert_eq!(got, times, "seed {seed} broke the time order");
        let mut mid: Vec<usize> = perturbed[1..5].iter().map(|&(_, i)| i).collect();
        reordered |= mid != [0, 2, 3, 5];
        mid.sort_unstable();
        assert_eq!(mid, [0, 2, 3, 5], "seed {seed}");
    }
    assert!(reordered, "no seed reordered the tied instant");
}

/// Same-lane events keep their scheduling order under every seed, while
/// the order between lanes is the seed's.
#[test]
fn same_lane_events_keep_scheduling_order_under_any_seed() {
    let mut lane_orders = std::collections::BTreeSet::new();
    for seed in 0..32 {
        let mut sim = Sim::new();
        sim.set_schedule_policy(Box::new(SeededPolicy::new(seed)));
        let log: Rc<RefCell<Vec<&str>>> = Rc::default();
        let l = Rc::clone(&log);
        sim.schedule(SimTime::ZERO, move |sc| {
            // Two lanes interleaved at one instant.
            for (lane, name) in [(1, "a0"), (2, "b0"), (1, "a1"), (2, "b1")] {
                let l = Rc::clone(&l);
                sc.schedule_keyed(SimTime::from_nanos(10), Some(lane), move |_| {
                    l.borrow_mut().push(name);
                });
            }
        });
        sim.run().unwrap();
        let order = log.borrow().clone();
        let pos = |n: &str| order.iter().position(|&x| x == n).unwrap();
        assert!(
            pos("a0") < pos("a1"),
            "lane 1 order violated under seed {seed}"
        );
        assert!(
            pos("b0") < pos("b1"),
            "lane 2 order violated under seed {seed}"
        );
        lane_orders.insert(pos("a0") < pos("b0"));
    }
    assert_eq!(lane_orders.len(), 2, "the seeds never reordered the lanes");
}

/// A wake and a kill landing on one process at the same instant run in
/// scheduling order (they share the process's tiebreak lane): the wake is
/// delivered first, then the kill drops the machine at its next
/// suspension point.
#[test]
fn same_time_wake_then_kill_delivers_the_wake_first() {
    let mut sim = Sim::new();
    let woke = Rc::new(Cell::new(false));
    let w = Rc::clone(&woke);
    let victim = sim.spawn("victim", move |mut ctx| async move {
        ctx.sleep(SimDuration::from_secs(5)).await;
        w.set(true);
        ctx.sleep(SimDuration::from_secs(10)).await;
        unreachable!("killed at 5s");
    });
    // Route the kill through a t=1s hop so its 5s call is pushed *after*
    // the sleeper's completion call: at 5s the sleep wake is queued first,
    // then the Killed resume lands right behind it on the same lane.
    sim.schedule(SimTime::from_nanos(1_000_000_000), move |sc| {
        sc.schedule(sc.now() + SimDuration::from_secs(4), move |sc| {
            sc.kill(victim)
        });
    });
    let report = sim.run().unwrap();
    assert!(woke.get(), "the same-instant wake must run before the kill");
    assert!(report
        .exits
        .iter()
        .any(|(p, _, e)| *p == victim && *e == ProcessExit::Killed));
    assert_eq!(report.final_time, SimTime::from_nanos(5_000_000_000));
}

/// Drive one mixed workload (sleep chains, a kill at a degenerate instant)
/// and compare every observable of the run report with the values the
/// former thread-per-rank backend also produced.
#[test]
fn mixed_workload_report_matches_recorded_values() {
    fn run() -> (u64, u64, Vec<(String, ProcessExit)>, usize) {
        let mut sim = Sim::new();
        sim.enable_trace();
        let log: Rc<RefCell<Vec<(String, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        for (name, step) in [("a", 3u64), ("b", 5u64), ("c", 7u64)] {
            let log = Rc::clone(&log);
            sim.spawn(name, move |mut ctx| async move {
                for _ in 0..4 {
                    ctx.sleep(SimDuration::from_secs(step)).await;
                    log.borrow_mut()
                        .push((ctx.name().to_string(), ctx.now().as_nanos()));
                }
            });
        }
        let victim = sim.spawn("victim", |mut ctx| async move {
            ctx.sleep(SimDuration::from_secs(60)).await;
        });
        // Kill lands at the exact instant of a's second sleep completion.
        sim.schedule(SimTime::from_nanos(6_000_000_000), move |sc| {
            sc.kill(victim)
        });
        let report = sim.run().unwrap();
        let exits = report
            .exits
            .iter()
            .map(|(_, n, e)| (n.clone(), e.clone()))
            .collect();
        (
            report.final_time.as_nanos(),
            report.events_executed,
            exits,
            report.trace.len(),
        )
    }
    let exits = [
        ("victim", ProcessExit::Killed),
        ("a", ProcessExit::Normal),
        ("b", ProcessExit::Normal),
        ("c", ProcessExit::Normal),
    ]
    .map(|(n, e)| (n.to_string(), e))
    .to_vec();
    assert_eq!(run(), (28_000_000_000, 30, exits, 9));
}

/// The three ways a run can order same-instant events: no policy, the
/// explorer's prescription (here: always the second candidate, when there
/// is one) and a race-detector seed.
fn policies() -> [(&'static str, Option<Box<dyn SchedulePolicy>>); 3] {
    [
        ("none", None),
        (
            "prescribed",
            Some(Box::new(PrescribedPolicy::new(vec![1; 8]))),
        ),
        ("seeded", Some(Box::new(SeededPolicy::new(7)))),
    ]
}

/// Kill delivered while the process is suspended on a posted op (its op
/// event already queued but not yet run): the op is never run. The op event
/// is dropped as stale, uncounted and without advancing the clock, and the
/// exit is recorded at the kill instant — under any schedule policy.
#[test]
fn kill_during_suspension_drops_the_pending_op() {
    fn run(policy: Option<Box<dyn SchedulePolicy>>) -> (u64, u64, bool) {
        let mut sim = Sim::new();
        if let Some(p) = policy {
            sim.set_schedule_policy(p);
        }
        let ran = Rc::new(Cell::new(false));
        let r = Rc::clone(&ran);
        sim.set_data_handler(move |sc, ev| {
            let DataEvent::Op(pid) = ev else {
                panic!("unexpected data event {ev:?}");
            };
            r.set(true);
            Reply::<()>::new(pid).complete(sc, ());
        });
        let victim = sim.spawn("victim", |mut ctx| async move {
            ctx.advance(SimDuration::from_secs(100));
            ctx.post_op::<()>().await;
        });
        sim.schedule(SimTime::from_nanos(10), move |sc| sc.kill(victim));
        let report = sim.run().unwrap();
        assert!(report
            .exits
            .iter()
            .any(|(p, _, e)| *p == victim && *e == ProcessExit::Killed));
        (
            report.final_time.as_nanos(),
            report.events_executed,
            ran.get(),
        )
    }
    for (label, policy) in policies() {
        let (final_ns, events, ran) = run(policy);
        assert!(!ran, "{label}: a dead process's op must not run");
        assert_eq!((final_ns, events), (10, 3), "{label}");
    }
}

/// A posted op reaches the handler as the posting process's `Op`, and its
/// reply comes back as words: the process reads what the handler sent.
#[test]
fn a_posted_op_is_answered_through_the_process_table() {
    let mut sim = Sim::new();
    let seen = Rc::new(RefCell::new(Vec::new()));
    let s2 = Rc::clone(&seen);
    sim.set_data_handler(move |sc, ev| {
        let DataEvent::Op(pid) = ev else {
            panic!("unexpected data event {ev:?}");
        };
        s2.borrow_mut().push((pid, sc.now().as_nanos()));
        let at = sc.now() + SimDuration::from_nanos(5);
        Reply::<u64>::new(pid).complete_at(sc, at, u64::MAX - pid.lane());
    });
    let got = Rc::new(RefCell::new(Vec::new()));
    let pids: Vec<_> = (0..3)
        .map(|i| {
            let got = Rc::clone(&got);
            sim.spawn(format!("p{i}"), move |mut ctx| async move {
                ctx.advance(SimDuration::from_nanos(10 * (i + 1)));
                let v: u64 = ctx.post_op().await;
                got.borrow_mut().push((ctx.pid(), v, ctx.now().as_nanos()));
            })
        })
        .collect();
    let report = sim.run().unwrap();
    assert_eq!(
        *seen.borrow(),
        pids.iter()
            .zip([10, 20, 30])
            .map(|(&p, t)| (p, t))
            .collect::<Vec<_>>()
    );
    assert_eq!(
        *got.borrow(),
        pids.iter()
            .zip([15, 25, 35])
            .map(|(&p, t)| (p, u64::MAX - p.lane(), t))
            .collect::<Vec<_>>()
    );
    // Three starts, three ops, three wakes.
    assert_eq!(report.events_executed, 9);
}

/// A data event is never stale: one scheduled in the lane of a process
/// that has died still runs (a message arrival aimed at a rank whose
/// process was replaced), under any schedule policy.
#[test]
fn a_data_event_in_a_dead_processs_lane_still_runs() {
    for (label, policy) in policies() {
        let mut sim = Sim::new();
        if let Some(p) = policy {
            sim.set_schedule_policy(p);
        }
        let got = Rc::new(RefCell::new(Vec::new()));
        let g2 = Rc::clone(&got);
        sim.set_data_handler(move |sc, ev| g2.borrow_mut().push((ev, sc.now().as_nanos())));
        let victim = sim.spawn("victim", |mut ctx| async move {
            ctx.sleep(SimDuration::from_secs(1)).await;
        });
        sim.schedule(SimTime::from_nanos(10), move |sc| {
            sc.kill(victim);
            sc.schedule_data(SimTime::from_nanos(20), Some(victim.lane()), [7, u64::MAX]);
        });
        let report = sim.run().unwrap();
        assert_eq!(
            *got.borrow(),
            [(DataEvent::Data([7, u64::MAX]), 20)],
            "{label}"
        );
        // The start, the kill's call and wake, the data event.
        assert_eq!(
            (report.final_time.as_nanos(), report.events_executed),
            (20, 4),
            "{label}"
        );
    }
}

/// A data event with no handler installed is a model bug: the run panics
/// rather than dropping it.
#[test]
#[should_panic(expected = "no data handler")]
fn a_data_event_without_a_handler_panics() {
    let mut sim = Sim::new();
    sim.schedule(SimTime::ZERO, |sc| sc.schedule_data(sc.now(), None, [0, 0]));
    let _ = sim.run();
}

/// A dead process's pending op tied with live events is skipped while it
/// sits behind the head and dropped once it reaches the front: no policy is
/// ever offered it, and it never runs. A live process's sleep call at the
/// same instant is offered as a `Call`.
#[test]
fn a_dead_processs_call_behind_the_head_is_never_a_candidate() {
    for (label, policy) in policies() {
        let mut sim = Sim::new();
        let with_policy = policy.is_some();
        if let Some(p) = policy {
            sim.set_schedule_policy(p);
        }
        let t = SimTime::from_nanos(20);
        let ran = Rc::new(Cell::new(false));
        let r = Rc::clone(&ran);
        sim.set_data_handler(move |_sc, _ev| r.set(true));
        let victim = sim.spawn("victim", move |mut ctx| async move {
            ctx.advance(SimDuration::from_nanos(20));
            ctx.post_op::<()>().await;
        });
        let peer = sim.spawn("peer", |mut ctx| async move {
            ctx.advance(SimDuration::from_nanos(20));
            ctx.sleep_until_local().await;
        });
        // Two laneless calls at t=20 are queued ahead of the victim's op
        // and the peer's sleep call.
        for _ in 0..2 {
            sim.schedule(t, |_sc| {});
        }
        sim.schedule(SimTime::from_nanos(10), move |sc| sc.kill(victim));
        let report = sim.run().unwrap();
        assert!(!ran.get(), "{label}: a dead process's op must not run");
        assert_eq!(report.final_time, t, "{label}");
        // Two starts, the kill's call and wake, two calls, the peer's
        // sleep call and its wake: the dead process's op is not counted.
        assert_eq!(report.events_executed, 8, "{label}");
        let offered: Vec<_> = report
            .decisions
            .iter()
            .filter(|d| d.time == t)
            .flat_map(|d| &d.candidates)
            .collect();
        assert!(
            offered.iter().all(|c| c.lane != Some(victim.lane())),
            "{label}: the dead process's op was offered"
        );
        if with_policy {
            assert!(
                offered
                    .iter()
                    .any(|c| c.lane == Some(peer.lane()) && c.kind == CandidateKind::Call),
                "{label}: the live process's sleep was not offered as a Call"
            );
        }
    }
}

/// A run stopped at its horizon with processes still parked kills them
/// in teardown, lowest pid first, after the exits the run itself saw.
#[test]
fn teardown_kills_parked_processes_lowest_pid_first() {
    let mut sim = Sim::new();
    sim.set_max_time(SimTime::from_nanos(50));
    sim.set_data_handler(|_sc, _ev| {});
    let pids: Vec<_> = (0..6)
        .map(|i| {
            sim.spawn(format!("parked{i}"), |mut ctx| async move {
                ctx.post_op::<()>().await;
            })
        })
        .collect();
    let early = pids[3];
    sim.schedule(SimTime::from_nanos(10), move |sc| sc.kill(early));
    sim.schedule(SimTime::from_nanos(100), |_sc| {});
    let report = sim.run().unwrap();
    assert!(report.stopped);
    let order: Vec<_> = report.exits.iter().map(|(p, _, _)| *p).collect();
    let mut want = vec![early];
    want.extend(pids.iter().copied().filter(|&p| p != early));
    assert_eq!(order, want);
    assert!(report
        .exits
        .iter()
        .all(|(_, _, e)| *e == ProcessExit::Killed));
}

/// A process killed before its first wake (spawned at a later start time)
/// never starts; the replacement spawned in the same event sequence runs to
/// completion — the restart-while-embryonic state transition.
#[test]
fn kill_before_first_wake_drops_the_unstarted_process() {
    fn run() -> (u64, bool, bool) {
        let mut sim = Sim::new();
        let started = Rc::new(Cell::new(false));
        let replaced = Rc::new(Cell::new(false));
        let s2 = Rc::clone(&started);
        let victim = sim.spawn_at(
            SimTime::from_nanos(100),
            "late-starter",
            move |mut ctx| async move {
                s2.set(true);
                ctx.sleep(SimDuration::from_nanos(1)).await;
            },
        );
        let r2 = Rc::clone(&replaced);
        sim.schedule(SimTime::from_nanos(10), move |sc| {
            sc.kill(victim);
            sc.spawn("replacement", move |mut ctx| async move {
                ctx.sleep(SimDuration::from_nanos(5)).await;
                r2.set(true);
            });
        });
        let report = sim.run().unwrap();
        assert!(report
            .exits
            .iter()
            .any(|(p, _, e)| *p == victim && *e == ProcessExit::Killed));
        (report.events_executed, started.get(), replaced.get())
    }
    let (events, started, replaced) = run();
    assert!(!started, "killed-before-start process must never run");
    assert!(replaced, "replacement must complete");
    assert_eq!(events, 5);
}
