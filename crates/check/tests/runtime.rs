//! Exercises the exploration runtime itself: exhaustive search visits
//! multiple schedules, violations come back with deterministic replayable
//! traces, a malformed trace is refused, the failure detectors (deadlock,
//! leaked threads) fire, and the primitives refuse to run outside a model.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use sdt_check::sync::mpsc;
use sdt_check::{thread, Config};

/// A request to a counter the model's main thread owns: the channel form
/// of a shared integer. `Add` is applied in one step, like an atomic
/// read-modify-write; `Load` then `Store` split an increment into a read
/// and a later write.
enum Op {
    Add(u64),
    Load(mpsc::Sender<u64>),
    Store(u64),
}

/// Spawn one worker per entry of `bodies`, serve their requests until
/// every worker has hung up, join them, and return the final count.
fn serve(bodies: Vec<fn(&mpsc::Sender<Op>)>) -> u64 {
    let (tx, rx) = mpsc::channel::<Op>();
    let workers: Vec<_> = bodies
        .into_iter()
        .map(|body| {
            let tx = tx.clone();
            thread::spawn(move || body(&tx))
        })
        .collect();
    drop(tx);
    let mut count = 0;
    while let Ok(op) = rx.recv() {
        match op {
            Op::Add(n) => count += n,
            Op::Load(reply) => reply.send(count).unwrap(),
            Op::Store(n) => count = n,
        }
    }
    for w in workers {
        w.join().unwrap();
    }
    count
}

fn add_twice(tx: &mpsc::Sender<Op>) {
    tx.send(Op::Add(1)).unwrap();
    tx.send(Op::Add(1)).unwrap();
}

/// Two threads doing one-step increments: the total is schedule
/// invariant, and the DFS actually explores more than one interleaving.
#[test]
fn atomic_rmw_total_is_schedule_invariant() {
    let exploration = Config::dfs()
        .explore(|| assert_eq!(serve(vec![add_twice, add_twice]), 4))
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
    fn load_then_store(tx: &mpsc::Sender<Op>) {
        let (reply, value) = mpsc::channel();
        tx.send(Op::Load(reply)).unwrap();
        let v = value.recv().unwrap();
        tx.send(Op::Store(v + 1)).unwrap();
    }
    let broken = || assert_eq!(serve(vec![load_then_store, load_then_store]), 2, "lost update");

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

/// A channel exists only inside a model: outside one it is refused by
/// name, not silently unchecked.
#[test]
#[should_panic(expected = "mpsc::channel called outside a model")]
fn channel_outside_a_model_is_refused() {
    let _ = mpsc::channel::<u8>();
}

/// A spawn outside a model is refused the same way.
#[test]
#[should_panic(expected = "thread::spawn called outside a model")]
fn spawn_outside_a_model_is_refused() {
    let _ = thread::spawn(|| ());
}

/// Exceeding max_schedules surfaces as a bound error, not a hang.
#[test]
fn schedule_budget_is_enforced() {
    let failure = Config::dfs()
        .max_schedules(3)
        .explore(|| assert_eq!(serve(vec![add_twice, add_twice, add_twice]), 6))
        .expect_err("3 schedules cannot cover 3 racing threads");
    assert!(failure.message.contains("max_schedules"), "unexpected: {}", failure.message);
}
