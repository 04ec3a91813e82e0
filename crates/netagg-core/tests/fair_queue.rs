//! `FairQueue` (start-time fair queuing) driven by a seeded pool of `k`
//! servers: each free server picks, runs a task of seeded cost and charges
//! it at completion. At every completion, for every pair of applications
//! with queued work since some earlier instant, the charged cost `W` they
//! received since then must satisfy the documented bound
//! `|ΔW_i/s_i − ΔW_j/s_j| ≤ k·(c_i/s_i + c_j/s_j)`, `c` the largest charge.

use netagg_core::aggbox::scheduler::FairQueue;
use netagg_core::protocol::AppId;
use netagg_net::DetRng;

/// When an application has work.
#[derive(Clone, Copy)]
enum Feed {
    /// From the start to the end.
    Always,
    /// For `on` completions out of every `on + off`: it drains, goes idle
    /// and comes back.
    Bursts { on: u64, off: u64 },
    /// Registered only after this many completions (mid-run), then always.
    From(u64),
}

struct App {
    share: f64,
    /// Task costs are uniform in `1..=max_cost`.
    max_cost: u64,
    feed: Feed,
}

struct Run {
    /// Worst `|ΔW_i/s_i − ΔW_j/s_j| ÷ (c_i/s_i + c_j/s_j)` seen.
    worst_ratio: f64,
    /// Largest difference in completed tasks between two `Always` apps.
    count_gap: u64,
    /// Charged cost per application at the end.
    charged: Vec<f64>,
}

fn app(share: f64, max_cost: u64, feed: Feed) -> App {
    App {
        share,
        max_cost,
        feed,
    }
}

/// Application `i` is `AppId(i)`. A fed application is topped up to `k + 1`
/// queued tasks before the servers pick, so it never runs dry while fed.
fn drive(k: usize, adaptive: bool, apps: &[App], completions: u64, seed: u64) -> Run {
    let n = apps.len();
    let mut rng = DetRng::new(seed);
    let mut fq = FairQueue::<u64>::default();
    // Per server: (finish time, app, cost) of the task it runs.
    let mut servers: Vec<Option<(u64, usize, u64)>> = vec![None; k];
    let (mut now, mut done) = (0u64, 0u64);
    let mut registered = vec![false; n];
    let mut queued = vec![0usize; n];
    let mut tasks = vec![0u64; n];
    let mut charged = vec![0.0f64; n];
    // (lowest, highest) `W_i/s_i − W_j/s_j` since both last gained queued work.
    let mut range: Vec<Vec<Option<(f64, f64)>>> = vec![vec![None; n]; n];
    let lag = |w: &[f64], i: usize, j: usize| w[i] / apps[i].share - w[j] / apps[j].share;
    let max_charge = |i: usize| {
        if adaptive {
            apps[i].max_cost as f64
        } else {
            1.0
        }
    };
    let (mut worst_ratio, mut count_gap) = (0.0f64, 0u64);
    while done < completions {
        for (i, a) in apps.iter().enumerate() {
            let fed = match a.feed {
                Feed::Always => true,
                Feed::Bursts { on, off } => done % (on + off) < on,
                Feed::From(start) => done >= start,
            };
            if fed && !registered[i] {
                fq.register(AppId(i as u16), a.share);
                registered[i] = true;
            }
            while fed && queued[i] <= k {
                if queued[i] == 0 {
                    for j in (0..n).filter(|&j| j != i && queued[j] > 0) {
                        let d = lag(&charged, i, j);
                        range[i][j] = Some((d, d));
                    }
                }
                fq.push(AppId(i as u16), rng.gen_range(1, a.max_cost + 1));
                queued[i] += 1;
            }
        }
        for server in servers.iter_mut().filter(|s| s.is_none()) {
            let Some((AppId(i), cost)) = fq.pick() else {
                break;
            };
            let i = usize::from(i);
            queued[i] -= 1;
            if queued[i] == 0 {
                range[i].iter_mut().for_each(|r| *r = None);
                range.iter_mut().for_each(|row| row[i] = None);
            }
            *server = Some((now + cost, i, cost));
        }
        let next = (0..k).filter(|&s| servers[s].is_some());
        let s = next
            .min_by_key(|&s| servers[s].map(|(end, ..)| end))
            .expect("a task runs");
        let (end, i, cost) = servers[s].take().expect("busy server");
        now = end;
        done += 1;
        let charge = if adaptive { cost as f64 } else { 1.0 };
        fq.charge(AppId(i as u16), charge);
        charged[i] += charge;
        tasks[i] += 1;
        for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))) {
            let Some((lo, hi)) = range[a][b].as_mut() else {
                continue;
            };
            let d = lag(&charged, a, b);
            (*lo, *hi) = (lo.min(d), hi.max(d));
            let unit = max_charge(a) / apps[a].share + max_charge(b) / apps[b].share;
            let ratio = (*hi - *lo) / unit;
            assert!(
                ratio <= k as f64 + 1e-9,
                "k={k} adaptive={adaptive} seed={seed}: apps {a},{b} drifted {ratio:.3} \
                 units apart by completion {done}"
            );
            worst_ratio = worst_ratio.max(ratio);
        }
        let always = (0..n).filter(|&i| matches!(apps[i].feed, Feed::Always));
        let counts: Vec<u64> = always.map(|i| tasks[i]).collect();
        let (lo, hi) = (counts.iter().min(), counts.iter().max());
        count_gap = count_gap.max(hi.zip(lo).map_or(0, |(h, l)| h - l));
    }
    Run {
        worst_ratio,
        count_gap,
        charged,
    }
}

/// Shares 1 : 1 : 3 plus a share-2 app registered mid-run; app 1 goes idle
/// and comes back every 3 500 completions. Both modes, `k ∈ {1, 2, 4}`.
#[test]
fn lag_stays_within_k_max_charges_through_idle_and_late_apps() {
    let bursts = Feed::Bursts {
        on: 2000,
        off: 1500,
    };
    let apps = [
        app(1.0, 10, Feed::Always),
        app(1.0, 30, bursts),
        app(3.0, 20, Feed::Always),
        app(2.0, 5, Feed::From(5000)),
    ];
    for k in [1, 2, 4] {
        for adaptive in [false, true] {
            for seed in 1..=3 {
                let run = drive(k, adaptive, &apps, 20_000, seed);
                println!(
                    "k={k} adaptive={adaptive} seed={seed}: worst lag {:.2} units",
                    run.worst_ratio
                );
            }
        }
    }
}

/// Shares 3 : 1, both always backlogged: the bound, and with it a 75 %
/// share of charged cost, in both modes.
#[test]
fn unequal_shares_are_respected() {
    let apps = [app(3.0, 10, Feed::Always), app(1.0, 10, Feed::Always)];
    for k in [1, 2, 4] {
        for adaptive in [false, true] {
            let run = drive(k, adaptive, &apps, 10_000, 7);
            let share = run.charged[0] / (run.charged[0] + run.charged[1]);
            assert!(
                (share - 0.75).abs() < 0.01,
                "k={k} adaptive={adaptive}: {share}"
            );
        }
    }
}

/// Fixed mode (every task costs 1), equal shares: completed task counts of
/// any two always-backlogged apps differ by at most `k`, whatever the tasks'
/// durations — Fig. 25's equal task counts, by construction.
#[test]
fn fixed_mode_keeps_task_counts_within_k() {
    let apps = [
        app(1.0, 3, Feed::Always),
        app(1.0, 1, Feed::Always),
        app(1.0, 7, Feed::Always),
    ];
    for k in [1, 2, 4] {
        for seed in 1..=3 {
            let run = drive(k, false, &apps, 10_000, seed);
            assert!(
                run.count_gap <= k as u64,
                "k={k} seed={seed}: gap {}",
                run.count_gap
            );
        }
    }
}

#[test]
fn ties_go_to_the_lowest_app_and_a_newcomer_starts_at_virtual_time() {
    let mut fq = FairQueue::default();
    fq.register(AppId(1), 1.0);
    fq.register(AppId(2), 1.0);
    fq.push(AppId(2), 'a');
    fq.push(AppId(1), 'b');
    assert_eq!(fq.pick(), Some((AppId(1), 'b')));
    fq.charge(AppId(1), 4.0);
    assert_eq!(fq.pick(), Some((AppId(2), 'a')));
    fq.charge(AppId(2), 3.0);
    fq.push(AppId(2), 'c');
    fq.push(AppId(1), 'd');
    assert_eq!(fq.pick(), Some((AppId(2), 'c')), "tags 3 < 4; V is now 3");
    // App 3 starts at V = 3, so after a task of cost 2 it is behind app 1
    // (5 > 4). Had it started at 0 it would run again first.
    fq.register(AppId(3), 1.0);
    fq.push(AppId(3), 'e');
    fq.push(AppId(3), 'f');
    assert_eq!(fq.pick(), Some((AppId(3), 'e')));
    fq.charge(AppId(3), 2.0);
    assert_eq!(fq.pick(), Some((AppId(1), 'd')));
    assert_eq!(fq.pick(), Some((AppId(3), 'f')));
    assert_eq!(fq.pick(), None);
    assert!(!fq.is_idle());
    for app in [1, 2, 3] {
        fq.charge(AppId(app), 1.0);
    }
    assert!(fq.is_idle());
}

#[test]
#[should_panic(expected = "not registered")]
fn pushing_for_an_unknown_app_panics() {
    FairQueue::default().push(AppId(9), ());
}
