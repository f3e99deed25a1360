//! Exhaustive exploration of the pipeline protocol (DESIGN.md §3.4.2).
//!
//! Enumerates, breadth first, every interleaving of a ticker
//! ([`EpochSys::advance`](crate::EpochSys::advance)), a persister thread
//! (`persist_next_batch` and `wait_for_work`) and one or two clients
//! (`begin_op`/`end_op`) while the clock opens six epochs. Each move is
//! one actor's section under the queue lock, or one side effect outside
//! it. The moves call the same [`PipelineQueue`] methods the real call
//! sites call, and model what lies outside the queue: the clock, the
//! announce slots, the frontier, the `behind` flag and whether a popped
//! batch is written back. Waits are predicates: a waiting actor moves
//! once its condition holds, as the real timed waits re-decide.
//!
//! Checked in every reachable state, and on every move:
//! - no deadlock: some actor can move, unless the ticker and the clients
//!   are done (and then everything released is published);
//! - the frontier is monotone, never above `released`, and published in
//!   epoch order, and no batch publishes before its release;
//! - no epoch `n` opens while `n − BUF_GENS` is unsealed, and an epoch
//!   seals only closed and quiescent;
//! - at most two sealed batches are unpublished, and
//!   `clock − frontier ≤ BUF_GENS + 2`.
//!
//! A violation panics with the shortest interleaving that reaches it.

use super::super::tracking::BUF_GENS;
use super::super::EPOCH_START;
use super::{Action, Driver, EpochBatch, PipelineQueue, WriteBack};
use std::collections::{HashMap, VecDeque};

/// The ticker opens this many epochs past `EPOCH_START`.
const EPOCHS: u64 = 6;
const LAST: u64 = EPOCH_START + EPOCHS;
/// The bound on `clock − frontier` that DESIGN.md §3.4.2 and recovery
/// cite.
const MAX_LAG: u64 = BUF_GENS as u64 + 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Ticker {
    /// Between advances; holds no lock.
    Idle,
    /// Holds the advance lock; waits for stragglers below the clock.
    Scanning,
    /// Released `clock − 1`; waits until `clock + 1` may open.
    Opening,
}

#[derive(Clone)]
enum Persister {
    /// About to run a step.
    Ready,
    /// In `wait_for_work`: its next action was idle.
    Waiting,
    /// Holds a popped batch for its early write-back.
    Early(EpochBatch),
    /// Holds a popped, released batch: write-back, fence, frontier.
    Publishing(EpochBatch),
    /// Published `r`; clears `behind` if that caught it up.
    CatchingUp(u64),
    /// Reclaimed; counts the batch out of `in_flight`.
    Completing,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum At {
    Out,
    /// In `wait_for_persister`.
    Admitting,
    /// Past the `behind` check, about to announce itself.
    Registering,
    /// Announced in this epoch.
    In(u64),
}

#[derive(Clone, Copy)]
struct Client {
    at: At,
    ops_left: u64,
}

#[derive(Clone, Copy)]
enum Move {
    Lock,
    Release { epoch: u64, behind: bool },
    Open(u64),
    Step { sealed: Option<u64>, then: Action },
    Wake,
    WriteBackEarly(u64),
    Publish(u64),
    CatchUp { cleared: bool },
    Complete,
    Begin { client: usize, at: At },
    Admit { client: usize },
    Register { client: usize, epoch: u64 },
    End { client: usize, epoch: u64 },
}

impl std::fmt::Display for Move {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Move::Lock => write!(f, "ticker: takes the advance lock"),
            Move::Release { epoch, behind } => {
                write!(f, "ticker: releases {epoch} (behind: {behind})")
            }
            Move::Open(e) => write!(f, "ticker: opens {e}, drops the advance lock"),
            Move::Step { sealed, then } => match sealed {
                Some(e) => write!(f, "persister: seals {e}, then {then:?}"),
                None => write!(f, "persister: {then:?}"),
            },
            Move::Wake => write!(f, "persister: wakes with work"),
            Move::WriteBackEarly(e) => write!(f, "persister: wrote {e} back, puts it back"),
            Move::Publish(e) => write!(f, "persister: fences and publishes frontier {e}"),
            Move::CatchUp { cleared } => {
                write!(f, "persister: catch-up check (clears behind: {cleared})")
            }
            Move::Complete => write!(f, "persister: reclaimed, batch complete"),
            Move::Begin { client, at } => write!(f, "client {client}: begin_op -> {at:?}"),
            Move::Admit { client } => write!(f, "client {client}: admitted"),
            Move::Register { client, epoch } => {
                write!(f, "client {client}: registers in {epoch}")
            }
            Move::End { client, epoch } => write!(f, "client {client}: end_op in {epoch}"),
        }
    }
}

#[derive(Clone)]
struct World {
    q: PipelineQueue,
    clock: u64,
    frontier: u64,
    /// The newest epoch a batch published (the frontier starts one
    /// above the first batch, whose epoch never held an operation).
    published: u64,
    behind: bool,
    ticker: Ticker,
    persister: Persister,
    clients: Vec<Client>,
}

/// `EpochClock::quiescent(e)` over the modelled announce slots.
fn quiescent(clients: &[Client], e: u64) -> bool {
    clients.iter().all(|c| !matches!(c.at, At::In(x) if x < e))
}

/// Packs a state into a `u128` key, field by field.
struct Key(u128, u32);

impl Key {
    fn push(&mut self, v: u64, bits: u32) {
        assert!(v < 1 << bits && self.1 + bits <= 128, "state key overflow");
        self.0 |= (v as u128) << self.1;
        self.1 += bits;
    }

    fn batch(&mut self, b: &EpochBatch) {
        self.push(b.epoch, 4);
        self.push(written(b.written), 2);
    }
}

fn written(w: WriteBack) -> u64 {
    match w {
        WriteBack::Pending => 0,
        WriteBack::EarlyFailed => 1,
        WriteBack::Done(_) => 2,
    }
}

impl World {
    fn new(clients: usize, ops: u64) -> World {
        let mut q = PipelineQueue::new(EPOCH_START - 2);
        q.driver = Driver::Thread;
        World {
            q,
            clock: EPOCH_START,
            frontier: EPOCH_START - 1,
            published: EPOCH_START - 2,
            behind: false,
            ticker: Ticker::Idle,
            persister: Persister::Ready,
            clients: vec![
                Client {
                    at: At::Out,
                    ops_left: ops,
                };
                clients
            ],
        }
    }

    fn key(&self) -> u128 {
        let mut k = Key(0, 0);
        k.push(self.clock - EPOCH_START, 3);
        k.push(self.frontier, 4);
        k.push(self.published, 4);
        k.push(self.behind as u64, 1);
        k.push(self.ticker as u64, 2);
        match &self.persister {
            Persister::Ready => k.push(0, 3),
            Persister::Waiting => k.push(1, 3),
            Persister::Early(b) => {
                k.push(2, 3);
                k.batch(b);
            }
            Persister::Publishing(b) => {
                k.push(3, 3);
                k.batch(b);
            }
            Persister::CatchingUp(r) => {
                k.push(4, 3);
                k.push(*r, 4);
            }
            Persister::Completing => k.push(5, 3),
        }
        k.push(self.q.sealed, 4);
        k.push(self.q.released, 4);
        k.push(self.q.in_flight as u64, 2);
        k.push(self.q.batches.len() as u64, 2);
        for b in &self.q.batches {
            k.batch(b);
        }
        for c in &self.clients {
            let (tag, e) = match c.at {
                At::Out => (0, 0),
                At::Admitting => (1, 0),
                At::Registering => (2, 0),
                At::In(e) => (3, e),
            };
            k.push(tag, 2);
            k.push(e, 4);
            k.push(c.ops_left, 2);
        }
        k.0
    }

    fn describe(&self) -> String {
        let batches: Vec<_> = self
            .q
            .batches
            .iter()
            .map(|b| (b.epoch, b.written))
            .collect();
        let persister = match &self.persister {
            Persister::Ready => "ready".to_string(),
            Persister::Waiting => "waiting for work".to_string(),
            Persister::Early(b) => format!("writing back {} early", b.epoch),
            Persister::Publishing(b) => format!("publishing {}", b.epoch),
            Persister::CatchingUp(r) => format!("catching up after {r}"),
            Persister::Completing => "completing".to_string(),
        };
        let clients: Vec<_> = self.clients.iter().map(|c| (c.at, c.ops_left)).collect();
        format!(
            "clock {} frontier {} sealed {} released {} in_flight {} batches {batches:?} \
             behind {}; ticker {:?}; persister {persister}; clients {clients:?}",
            self.clock,
            self.frontier,
            self.q.sealed,
            self.q.released,
            self.q.in_flight,
            self.behind,
            self.ticker
        )
    }

    /// Every move some actor can make, with the state it leads to; an
    /// error if a move breaks a transition invariant.
    fn moves(&self) -> Result<Vec<(Move, World)>, String> {
        let mut out = Vec::new();
        self.ticker_moves(&mut out)?;
        self.persister_moves(&mut out)?;
        for i in 0..self.clients.len() {
            self.client_moves(i, &mut out);
        }
        Ok(out)
    }

    /// `advance`: lock, wait for stragglers, release, wait for
    /// `may_open`, open.
    fn ticker_moves(&self, out: &mut Vec<(Move, World)>) -> Result<(), String> {
        let mut w = self.clone();
        let mv = match self.ticker {
            Ticker::Idle if self.clock < LAST => {
                w.ticker = Ticker::Scanning;
                Move::Lock
            }
            Ticker::Scanning if quiescent(&self.clients, self.clock) => {
                let epoch = self.clock - 1;
                let behind = w.q.release(epoch, w.q.driver);
                w.behind |= behind;
                w.ticker = Ticker::Opening;
                Move::Release { epoch, behind }
            }
            Ticker::Opening if w.q.may_open(self.clock + 1) => {
                let next = self.clock + 1;
                if next >= BUF_GENS as u64 && w.q.sealed < next - BUF_GENS as u64 {
                    return Err(format!(
                        "epoch {next} opens while epoch {} is unsealed",
                        next - BUF_GENS as u64
                    ));
                }
                w.clock = next;
                w.ticker = Ticker::Idle;
                Move::Open(next)
            }
            _ => return Ok(()),
        };
        out.push((mv, w));
        Ok(())
    }

    /// The coordinator: `persist_next_batch`, then `wait_for_work` while
    /// its next action is idle.
    fn persister_moves(&self, out: &mut Vec<(Move, World)>) -> Result<(), String> {
        let mut w = self.clone();
        let mode = w.q.driver;
        let mv = match &self.persister {
            Persister::Ready => {
                let mut sealed = None;
                let then = loop {
                    let clients = &w.clients;
                    match w
                        .q
                        .next_action(mode, w.clock, sealed.is_none(), |e| quiescent(clients, e))
                    {
                        Action::Seal(e) => {
                            if e >= w.clock || !quiescent(&w.clients, e + 1) {
                                return Err(format!("epoch {e} sealed while open or announced"));
                            }
                            w.q.push_sealed(EpochBatch::seal(e, Vec::new(), Vec::new()));
                            sealed = Some(e);
                        }
                        action => break action,
                    }
                };
                w.persister = match then {
                    Action::Publish => Persister::Publishing(w.q.batches.pop_front().unwrap()),
                    Action::WriteBackEarly => Persister::Early(w.q.batches.pop_front().unwrap()),
                    _ => Persister::Waiting,
                };
                Move::Step { sealed, then }
            }
            Persister::Waiting => {
                let clients = &self.clients;
                let action = self
                    .q
                    .next_action(mode, self.clock, true, |e| quiescent(clients, e));
                if matches!(action, Action::Idle { .. }) {
                    return Ok(());
                }
                w.persister = Persister::Ready;
                Move::Wake
            }
            Persister::Early(b) => {
                let mut b = b.clone();
                b.written = WriteBack::Done(0);
                let epoch = b.epoch;
                w.q.batches.push_front(b);
                w.persister = Persister::Ready;
                Move::WriteBackEarly(epoch)
            }
            Persister::Publishing(b) => {
                let r = b.epoch;
                if r > w.q.released {
                    return Err(format!(
                        "epoch {r} publishes before its release (released {})",
                        w.q.released
                    ));
                }
                if r != w.published + 1 || r < w.frontier {
                    return Err(format!(
                        "epoch {r} publishes out of order (frontier {}, last published {})",
                        w.frontier, w.published
                    ));
                }
                w.frontier = r;
                w.published = r;
                w.persister = Persister::CatchingUp(r);
                Move::Publish(r)
            }
            Persister::CatchingUp(r) => {
                let cleared = w.behind && w.q.caught_up(*r);
                w.behind &= !cleared;
                w.persister = Persister::Completing;
                Move::CatchUp { cleared }
            }
            Persister::Completing => {
                w.q.in_flight -= 1;
                w.persister = Persister::Ready;
                Move::Complete
            }
        };
        out.push((mv, w));
        Ok(())
    }

    /// `begin_op` (with its admission wait) and `end_op`.
    fn client_moves(&self, client: usize, out: &mut Vec<(Move, World)>) {
        let mut w = self.clone();
        let c = &mut w.clients[client];
        let mv = match c.at {
            At::Out if c.ops_left > 0 => {
                c.at = if self.behind {
                    At::Admitting
                } else {
                    At::Registering
                };
                Move::Begin { client, at: c.at }
            }
            At::Admitting if !(self.behind && self.q.driver == Driver::Thread) => {
                c.at = At::Registering;
                Move::Admit { client }
            }
            At::Registering => {
                c.at = At::In(self.clock);
                Move::Register {
                    client,
                    epoch: self.clock,
                }
            }
            At::In(epoch) => {
                c.at = At::Out;
                c.ops_left -= 1;
                Move::End { client, epoch }
            }
            _ => return,
        };
        out.push((mv, w));
    }

    /// The bounds every reachable state keeps.
    fn check(&self) -> Result<(), String> {
        if self.published > self.q.released {
            return Err(format!(
                "epoch {} published above released {}",
                self.published, self.q.released
            ));
        }
        if self.q.sealed - self.published > 2 {
            return Err(format!(
                "{} sealed batches unpublished",
                self.q.sealed - self.published
            ));
        }
        if self.clock - self.frontier > MAX_LAG {
            return Err(format!(
                "clock − frontier = {} exceeds BUF_GENS + 2",
                self.clock - self.frontier
            ));
        }
        Ok(())
    }

    /// A state where nobody can move: legitimate only once the ticker
    /// and every client are done, and then nothing released is left.
    fn check_stuck(&self) -> Result<(), String> {
        let done = self.ticker == Ticker::Idle
            && self.clock == LAST
            && self
                .clients
                .iter()
                .all(|c| c.at == At::Out && c.ops_left == 0);
        if !done {
            return Err("deadlock: no actor can move".to_string());
        }
        if self.published != self.q.released || self.behind {
            return Err("the persister idles with released epochs unpublished".to_string());
        }
        Ok(())
    }
}

/// Panics with the interleaving that leads from the initial state to
/// `key`, then `why`.
fn fail(seen: &HashMap<u128, (u128, Option<Move>)>, key: u128, last: &World, why: &str) -> ! {
    let mut moves = Vec::new();
    let mut k = key;
    while let Some(&(parent, Some(mv))) = seen.get(&k) {
        moves.push(mv);
        k = parent;
    }
    let trace: Vec<String> = moves
        .iter()
        .rev()
        .enumerate()
        .map(|(i, mv)| format!("{:3}. {mv}", i + 1))
        .collect();
    panic!(
        "{why}\ninterleaving ({} moves):\n{}\nstate: {}",
        moves.len(),
        trace.join("\n"),
        last.describe()
    );
}

/// Explores every state reachable with `clients` clients of `ops`
/// operations each; returns how many there are.
fn explore(clients: usize, ops: u64) -> usize {
    let init = World::new(clients, ops);
    let mut seen: HashMap<u128, (u128, Option<Move>)> = HashMap::new();
    seen.insert(init.key(), (0, None));
    let mut frontier = VecDeque::from([init]);
    while let Some(w) = frontier.pop_front() {
        let key = w.key();
        let moves = w.moves().unwrap_or_else(|why| fail(&seen, key, &w, &why));
        if moves.is_empty() {
            if let Err(why) = w.check_stuck() {
                fail(&seen, key, &w, &why);
            }
        }
        for (mv, next) in moves {
            let k = next.key();
            if seen.contains_key(&k) {
                continue;
            }
            seen.insert(k, (key, Some(mv)));
            if let Err(why) = next.check() {
                fail(&seen, k, &next, &why);
            }
            frontier.push_back(next);
        }
    }
    seen.len()
}

#[test]
fn every_interleaving_keeps_the_pipeline_invariants() {
    let one = explore(1, 3);
    let two = explore(2, 2);
    eprintln!("pipeline explorer: {one} states with one client, {two} with two");
}
