//! Exercises the exploration runtime itself: exhaustive search visits
//! multiple schedules, violations come back with deterministic replayable
//! traces, a malformed trace is refused, and the failure detectors
//! (deadlock, leaked threads) fire.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use sdt_check::sync::atomic::{AtomicU64, Ordering};
use sdt_check::sync::mpsc;
use sdt_check::{thread, Config};

/// Two threads doing atomic RMW increments: the total is schedule
/// invariant, and the DFS actually explores more than one interleaving.
#[test]
fn atomic_rmw_total_is_schedule_invariant() {
    let exploration = Config::dfs()
        .explore(|| {
            let counter = Arc::new(AtomicU64::new(0));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let counter = Arc::clone(&counter);
                    thread::spawn(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            assert_eq!(counter.load(Ordering::Relaxed), 4);
        })
        .unwrap();
    assert!(
        exploration.schedules > 1,
        "two racing threads must yield multiple schedules, got {}",
        exploration.schedules
    );
}

/// The classic lost update — load, compute, store without atomicity — must
/// be found by exhaustive search, and the reported trace must replay to
/// the same failure deterministically.
#[test]
fn lost_update_is_found_and_replays() {
    let broken = || {
        let counter = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    let v = counter.load(Ordering::SeqCst);
                    counter.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 2, "lost update");
    };

    let failure = Config::dfs().explore(broken).expect_err("the race must be found");
    assert!(failure.message.contains("lost update"), "unexpected: {}", failure.message);
    assert!(!failure.trace.is_empty());

    // The trace pins the exact interleaving: replaying it reproduces the
    // identical failure, twice.
    for _ in 0..2 {
        let replayed = Config::replay(&failure.trace)
            .explore(broken)
            .expect_err("replay must reproduce the violation");
        assert_eq!(replayed.trace, failure.trace);
        assert!(replayed.message.contains("lost update"));
        assert_eq!(replayed.schedules, 1, "replay runs exactly one schedule");
    }

    // And exhaustive search itself is deterministic: same model, same
    // first failing schedule.
    let again = Config::dfs().explore(broken).expect_err("still broken");
    assert_eq!(again.trace, failure.trace);
    assert_eq!(again.schedules, failure.schedules);
}

/// A trace token that is not a thread id is refused by name before the
/// model runs — dropping it would replay a different schedule.
#[test]
fn malformed_replay_trace_is_refused() {
    for (trace, token) in [("0,1,x,0", "`x`"), ("[0,1]", "`[0`"), ("0,,1", "``")] {
        let ran = std::cell::Cell::new(false);
        let failure = Config::replay(trace)
            .explore(|| ran.set(true))
            .expect_err("a malformed trace must be refused");
        assert!(
            failure.message.contains("malformed replay trace") && failure.message.contains(token),
            "{trace}: unexpected message: {}",
            failure.message
        );
        assert_eq!(failure.schedules, 0);
        assert!(!ran.get(), "{trace}: a refused trace must not run the model");
    }
}

/// Two threads, each blocked in `recv` while it holds the other's live
/// sender: no thread can ever run again, on every schedule, and the
/// report names what each one waits on.
#[test]
fn channel_deadlock_is_reported() {
    let failure = Config::dfs()
        .explore(|| {
            let (tx_main, rx_main) = mpsc::channel::<u8>();
            let (tx_worker, rx_worker) = mpsc::channel::<u8>();
            let worker = thread::spawn(move || {
                let _keeps_main_waiting = tx_main;
                let _ = rx_worker.recv();
            });
            let _keeps_worker_waiting = tx_worker;
            let _ = rx_main.recv();
            worker.join().unwrap();
        })
        .expect_err("the circular wait must be reported");
    assert!(
        failure.message.contains("deadlock")
            && failure.message.contains("thread 0 waiting on recv(c0)")
            && failure.message.contains("thread 1 waiting on recv(c1)"),
        "unexpected message: {}",
        failure.message
    );
}

/// Channels preserve FIFO per sender and report disconnection exactly
/// once the queue drains after the last sender drops.
#[test]
fn channel_is_fifo_and_reports_disconnect() {
    Config::dfs().check(|| {
        let (tx, rx) = mpsc::channel::<u32>();
        let producer = thread::spawn(move || {
            tx.send(1).unwrap();
            tx.send(2).unwrap();
        });
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(mpsc::RecvError));
        producer.join().unwrap();
    });
}

/// A blocking recv parks until a send enables it — the scheduler must
/// never pick a disabled thread.
#[test]
fn recv_waits_for_send() {
    Config::dfs().check(|| {
        let (tx, rx) = mpsc::channel::<&'static str>();
        let producer = thread::spawn(move || {
            tx.send("ready").unwrap();
        });
        // On schedules where the main thread runs first this recv is not
        // yet enabled; the explorer must schedule the producer.
        assert_eq!(rx.recv(), Ok("ready"));
        producer.join().unwrap();
    });
}

/// try_recv distinguishes empty-but-connected from disconnected.
#[test]
fn try_recv_reports_empty_vs_disconnected() {
    Config::dfs().check(|| {
        let (tx, rx) = mpsc::channel::<u32>();
        match rx.try_recv() {
            Err(mpsc::TryRecvError::Empty) => {}
            other => panic!("connected+empty must be Empty, got {other:?}"),
        }
        drop(tx);
        match rx.try_recv() {
            Err(mpsc::TryRecvError::Disconnected) => {}
            other => panic!("disconnected must be Disconnected, got {other:?}"),
        }
    });
}

/// A model that returns with an unjoined thread is an error, not UB.
#[test]
fn leaked_thread_is_reported() {
    let failure = Config::dfs()
        .explore(|| {
            let h = thread::spawn(|| {});
            std::mem::forget(h);
        })
        .expect_err("leak must be reported");
    assert!(failure.message.contains("live threads"), "unexpected: {}", failure.message);
}

/// Scoped threads may borrow the environment; all joined at scope end.
#[test]
fn scope_borrows_and_joins() {
    Config::dfs().check(|| {
        let data = [10u64, 20, 30];
        let total = Arc::new(AtomicU64::new(0));
        thread::scope(|s| {
            for chunk in data.chunks(1) {
                let total = Arc::clone(&total);
                s.spawn(move || {
                    total.fetch_add(chunk[0], Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 60);
    });
}

/// Checked primitives created outside a model behave as plain std types.
#[test]
fn primitives_fall_back_to_std_outside_models() {
    let a = AtomicU64::new(7);
    a.fetch_add(1, Ordering::SeqCst);
    assert_eq!(a.load(Ordering::SeqCst), 8);

    let (tx, rx) = mpsc::channel::<u8>();
    tx.send(42).unwrap();
    assert_eq!(rx.try_recv(), Ok(42));

    let h = thread::spawn(|| 9u8);
    assert_eq!(h.join().unwrap(), 9);

    thread::scope(|s| {
        let h = s.spawn(|| 3u8);
        assert_eq!(h.join().unwrap(), 3);
    });
}

/// Exceeding max_schedules surfaces as a bound error, not a hang.
#[test]
fn schedule_budget_is_enforced() {
    let failure = Config::dfs()
        .max_schedules(3)
        .explore(|| {
            let counter = Arc::new(AtomicU64::new(0));
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    let counter = Arc::clone(&counter);
                    thread::spawn(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
        })
        .expect_err("3 schedules cannot cover 3 racing threads");
    assert!(failure.message.contains("max_schedules"), "unexpected: {}", failure.message);
}
