//! `lifecycle::Parking` under `Mailbox`: a wake-up syscall is made only
//! for a thread that is parked and not yet woken, none is ever lost, and
//! `Duration::MAX` means "no deadline" instead of an overflow panic.
//!
//! `Mailbox::parking()` reports `(threads parked now, wake-ups made so
//! far)`; the tests wait on the first number instead of sleeping, so every
//! count below is exact.

use netagg_net::lifecycle::{
    CancelToken, JoinScope, Mailbox, MailboxRecvError, MailboxSendError, OverflowPolicy, Wait,
    DEFAULT_JOIN_DEADLINE,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn mailbox(capacity: usize) -> (Mailbox<u64>, CancelToken) {
    let cancel = CancelToken::new();
    let mb = Mailbox::new("t", capacity, OverflowPolicy::Block, cancel.clone());
    (mb, cancel)
}

fn scope() -> JoinScope {
    JoinScope::new("parking-test", CancelToken::new(), DEFAULT_JOIN_DEADLINE)
}

/// Spin until `n` threads are parked on `mb`.
fn await_parked(mb: &Mailbox<u64>, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while mb.parking().0 != n {
        assert!(Instant::now() < deadline, "never saw {n} parked threads");
        std::thread::yield_now();
    }
}

#[test]
fn sends_and_pops_with_nobody_parked_make_no_wake() {
    let (mb, _cancel) = mailbox(64);
    for i in 0..64 {
        mb.send(i).unwrap();
    }
    while mb.try_recv().is_ok() {}
    assert_eq!(mb.parking(), (0, 0));
}

#[test]
fn a_burst_to_one_parked_receiver_makes_one_wake() {
    let (mb, _cancel) = mailbox(64);
    let scope = scope();
    let (rx, got) = (mb.clone(), Arc::new(AtomicU64::new(u64::MAX)));
    let slot = got.clone();
    // One receive only: the woken thread cannot re-park inside the burst.
    let recv_one = move || slot.store(rx.recv().unwrap(), SeqCst);
    scope.spawn("receiver", recv_one).unwrap();
    await_parked(&mb, 1);
    for i in 0..32 {
        mb.send(i).unwrap();
    }
    scope.finish();
    assert_eq!(got.load(SeqCst), 0);
    assert_eq!(mb.parking(), (0, 1), "32 sends, one sleeper, one syscall");
    assert_eq!(mb.len(), 31);
}

#[test]
fn parked_receivers_cost_one_wake_per_item_or_per_sleeper_whichever_is_fewer() {
    for (receivers, items) in [(4u64, 2u64), (4, 4), (3, 9)] {
        let (mb, _cancel) = mailbox(64);
        let scope = scope();
        let (got, sum) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        for r in 0..receivers {
            let (rx, got, sum) = (mb.clone(), got.clone(), sum.clone());
            // One receive each, so nobody re-parks inside the burst.
            let recv_one = move || {
                if let Ok(v) = rx.recv() {
                    sum.fetch_add(v, SeqCst);
                    got.fetch_add(1, SeqCst);
                }
            };
            scope.spawn(format!("receiver-{r}"), recv_one).unwrap();
        }
        await_parked(&mb, receivers as usize);
        for i in 1..=items {
            mb.send(i).unwrap();
        }
        let served = receivers.min(items);
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.load(SeqCst) != served {
            assert!(
                Instant::now() < deadline,
                "items stranded: {:?}",
                mb.parking()
            );
            std::thread::yield_now();
        }
        assert_eq!(
            sum.load(SeqCst),
            served * (served + 1) / 2,
            "FIFO, each once"
        );
        assert_eq!(
            mb.parking().1,
            served,
            "{receivers} sleepers, {items} items"
        );
        mb.close();
        scope.finish();
        let left_asleep = u64::from(receivers > items);
        assert_eq!(
            mb.parking(),
            (0, served + left_asleep),
            "close wakes the rest"
        );
    }
}

#[test]
fn a_parked_block_sender_is_woken_by_one_pop_and_nothing_else_is() {
    let (mb, _cancel) = mailbox(2);
    mb.send(1).unwrap();
    mb.send(2).unwrap();
    let scope = scope();
    let tx = mb.clone();
    scope.spawn("sender", move || tx.send(3).unwrap()).unwrap();
    await_parked(&mb, 1);
    assert_eq!(mb.try_recv(), Ok(1));
    scope.finish();
    assert_eq!(mb.parking(), (0, 1), "one pop woke the parked sender");
    // With no sender parked, pops and sends cost no syscall at all.
    assert_eq!(mb.try_recv(), Ok(2));
    assert_eq!(mb.try_recv(), Ok(3));
    mb.send(4).unwrap();
    assert_eq!(mb.parking(), (0, 1));
}

#[test]
fn close_and_cancel_still_wake_everyone() {
    for cancel_it in [false, true] {
        let (mb, cancel) = mailbox(1);
        mb.send(0).unwrap();
        let scope = scope();
        let blocked = Arc::new(AtomicU64::new(0));
        // Two senders parked on the full queue; a second mailbox on the
        // same token with two receivers parked on the empty one.
        let other = Mailbox::<u64>::new("o", 1, OverflowPolicy::Block, cancel.clone());
        for i in 0..2 {
            let (tx, woken) = (mb.clone(), blocked.clone());
            let send = move || {
                let r = tx.send(9);
                let closed = matches!(r, Err(MailboxSendError::Closed(9)));
                assert!(closed || matches!(r, Err(MailboxSendError::Cancelled(9))));
                woken.fetch_add(1, SeqCst);
            };
            let (rx, woken) = (other.clone(), blocked.clone());
            let recv = move || {
                let r = rx.recv().unwrap_err();
                assert!(r == MailboxRecvError::Closed || r == MailboxRecvError::Cancelled);
                woken.fetch_add(1, SeqCst);
            };
            scope.spawn(format!("sender-{i}"), send).unwrap();
            scope.spawn(format!("receiver-{i}"), recv).unwrap();
        }
        await_parked(&mb, 2);
        await_parked(&other, 2);
        if cancel_it {
            cancel.cancel();
        } else {
            mb.close();
            other.close();
        }
        scope.finish();
        assert_eq!(blocked.load(SeqCst), 4);
        assert_eq!((mb.parking(), other.parking()), ((0, 1), (0, 1)));
    }
}

#[test]
fn recv_for_duration_max_is_a_receive_without_deadline() {
    let (mb, _cancel) = mailbox(4);
    mb.send(7).unwrap();
    assert_eq!(mb.recv_until(Wait::For(Duration::MAX)), Ok(7));
    // Empty, it waits — past any deadline the clock can hold — for a send.
    let scope = scope();
    let rx = mb.clone();
    let recv = move || assert_eq!(rx.recv_timeout(Duration::MAX), Ok(8));
    scope.spawn("receiver", recv).unwrap();
    await_parked(&mb, 1);
    mb.send(8).unwrap();
    scope.finish();
    let none = mb.recv_timeout(Duration::ZERO);
    assert_eq!(none, Err(MailboxRecvError::Timeout));
}

#[test]
fn wait_timeout_of_duration_max_is_a_sleep_until_cancelled() {
    let cancel = CancelToken::new();
    let scope = scope();
    let sleeper = cancel.clone();
    let sleep = move || assert!(sleeper.wait_timeout(Duration::MAX));
    scope.spawn("sleeper", sleep).unwrap();
    cancel.cancel();
    scope.finish();
    assert!(cancel.wait_timeout(Duration::MAX), "cancelled: at once");
}

/// 4 producers x 4 consumers on one mailbox for a second, the consumers
/// mixing `Wait::Forever`, `Wait::For(1 ms)` and `Wait::Cancel` on a token
/// the producers keep cancelling: every item is received exactly once, and
/// no consumer sits for 50 ms without an item while the queue has one.
#[test]
fn stress_every_item_is_received_once_and_no_consumer_is_left_asleep() {
    const PRODUCERS: u64 = 4;
    let (mb, _cancel) = mailbox(8);
    let scope = scope();
    let stop = Arc::new(AtomicBool::new(false));
    let sent: Vec<_> = (0..PRODUCERS)
        .map(|_| Arc::new(AtomicU64::new(0)))
        .collect();
    // The token each `Wait::Cancel` consumer currently waits on.
    let tokens: Vec<_> = (0..4)
        .map(|_| Arc::new(Mutex::new(CancelToken::new())))
        .collect();
    let progress: Vec<_> = (0..4).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let (count, sum) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    for (c, own) in tokens.iter().enumerate() {
        let (rx, own, progress) = (mb.clone(), own.clone(), progress[c].clone());
        let (count, sum) = (count.clone(), sum.clone());
        let consume = move || loop {
            let token = own.lock().clone();
            let wait = match c {
                0 | 3 => Wait::Forever,
                1 => Wait::For(Duration::from_millis(1)),
                _ => Wait::Cancel(&token),
            };
            match rx.recv_until(wait) {
                Ok(v) => {
                    count.fetch_add(1, SeqCst);
                    sum.fetch_add(v, SeqCst);
                    progress.fetch_add(1, SeqCst);
                }
                Err(MailboxRecvError::Timeout) => {}
                Err(MailboxRecvError::Cancelled) => *own.lock() = CancelToken::new(),
                Err(MailboxRecvError::Closed) => return,
            }
        };
        scope.spawn(format!("consumer-{c}"), consume).unwrap();
    }
    for (p, sent) in sent.iter().enumerate() {
        let (tx, stop, sent, victim) = (mb.clone(), stop.clone(), sent.clone(), tokens[2].clone());
        let produce = move || {
            let mut i = 0u64;
            while !stop.load(SeqCst) {
                tx.send(i * PRODUCERS + p as u64).unwrap();
                i += 1;
                if i.is_multiple_of(64) {
                    victim.lock().cancel();
                }
            }
            sent.store(i, SeqCst);
        };
        scope.spawn(format!("producer-{p}"), produce).unwrap();
    }
    // Watch for a second: a consumer that makes no progress across 50 ms
    // in which every look found the queue non-empty was left asleep. A
    // look that itself came late (the host stalled the whole process)
    // proves nothing and restarts the clocks.
    let start = Instant::now();
    let mut stuck = vec![(0u64, Instant::now()); progress.len()];
    while start.elapsed() < Duration::from_secs(1) {
        let slept = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let clear = mb.is_empty() || slept.elapsed() > Duration::from_millis(20);
        for (c, (seen, since)) in stuck.iter_mut().enumerate() {
            let now = progress[c].load(SeqCst);
            if now != *seen || clear {
                (*seen, *since) = (now, Instant::now());
            }
            assert!(
                since.elapsed() < Duration::from_millis(50),
                "consumer {c} left asleep: {mb:?}"
            );
        }
    }
    stop.store(true, SeqCst);
    // Producers stop once a consumer frees them; then every item sent must
    // arrive, and close must find and wake every consumer still parked.
    let deadline = Instant::now() + Duration::from_secs(10);
    let total = || sent.iter().map(|s| s.load(SeqCst)).collect::<Vec<u64>>();
    while total().contains(&0) || count.load(SeqCst) != total().iter().sum::<u64>() {
        assert!(
            Instant::now() < deadline,
            "items stranded: {mb:?} {:?}",
            mb.parking()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    mb.close();
    scope.finish();
    let of = |(p, &n): (usize, &u64)| PRODUCERS * (n * (n - 1) / 2) + p as u64 * n;
    let expected: u64 = total().iter().enumerate().map(of).sum();
    assert_eq!(sum.load(SeqCst), expected, "an item was duplicated or lost");
}
