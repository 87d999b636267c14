//! Vacation — the STAMP travel-booking benchmark, reimplemented over
//! `wtm-stm`.
//!
//! A travel agency database with three resource tables (cars, rooms,
//! flights — each row `id → {total, used, price}`) plus a customer table
//! mapping customers to their booking lists. Three transaction kinds,
//! mirroring STAMP's client actions:
//!
//! * **MakeReservation** — query `num_queries` random rows across the
//!   three tables, pick the highest-priced available resource of each
//!   queried type, then book it for a customer (creating the customer on
//!   first booking). Mostly reads, a few writes.
//! * **DeleteCustomer** — release all of a customer's bookings and remove
//!   the record. Write-heavy, touches many rows.
//! * **UpdateTables** — the agency re-prices or resizes random rows.
//!   Write-heavy, disjoint-ish.
//!
//! The paper drives contention with the fraction of updating transactions
//! (Fig. 5); [`VacationOpGenerator`] exposes exactly that knob.
//!
//! Each table is a [`crate::TxRBMap`] index, as in STAMP, where the tables
//! are RB-trees too, and — also as in STAMP, whose `reservation_t` and
//! `customer_t` are objects beside the map — every row lives in a `TVar` of
//! its own: a tree node holds only the row's handle. A lookup reads the
//! path, then the row; a booking, a release or a re-price writes the row
//! and leaves the nodes alone, so it conflicts with the transactions that
//! use that row, not with every lookup that walks past its node. Only
//! inserting or removing a customer changes tree structure.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wtm_stm::{TVar, TxObject, TxResult, Txn};

use crate::rbtree::TxRBMap;

/// A table: key → the handle of the row's object. `None` only in an arena
/// slot that has never held a node.
type Table<T> = TxRBMap<Option<TVar<T>>>;

/// Run `f` on the row object under `key` of `table`, `None` if the key is
/// absent. The handle is borrowed from the node version the lookup read,
/// not cloned: a clone would be a read-modify-write on the object's count,
/// a line every thread that uses the row touches.
fn with_row<'t, T: TxObject, R>(
    table: &Table<T>,
    tx: &mut Txn<'t>,
    key: i64,
    f: impl FnOnce(&mut Txn<'t>, &TVar<T>) -> TxResult<R>,
) -> TxResult<Option<R>> {
    table.with_value(tx, key, |tx, cell| f(tx, row(cell)))
}

fn row<T: TxObject>(cell: &Option<TVar<T>>) -> &TVar<T> {
    cell.as_ref().expect("a node in the tree holds its row")
}

/// Every `(key, row)` of `table` in key order. Quiescence only.
fn rows<T: TxObject>(table: &Table<T>) -> Vec<(i64, T)> {
    table
        .snapshot()
        .into_iter()
        .map(|(key, cell)| (key, T::clone(&row(&cell).sample())))
        .collect()
}

/// The three resource tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResKind {
    Car,
    Room,
    Flight,
}

impl ResKind {
    /// All kinds.
    pub fn all() -> &'static [ResKind] {
        &[ResKind::Car, ResKind::Room, ResKind::Flight]
    }
}

/// One row of a resource table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reservation {
    /// Capacity of the resource.
    pub total: i64,
    /// Currently booked units (`0 ≤ used ≤ total`).
    pub used: i64,
    /// Price per unit.
    pub price: i64,
}

impl Reservation {
    /// Units still available.
    pub fn free(&self) -> i64 {
        self.total - self.used
    }
}

/// One customer record: the bookings it holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Customer {
    /// `(kind, resource id, price paid)` per booking.
    pub bookings: Vec<(ResKind, i64, i64)>,
}

/// Sizing and mix knobs (subset of STAMP's `-n -q -u -r` flags).
#[derive(Debug, Clone)]
pub struct VacationConfig {
    /// Rows per resource table (STAMP `-r`).
    pub num_relations: i64,
    /// Queries per MakeReservation / updates per UpdateTables (STAMP `-n`).
    pub num_queries: usize,
    /// Percentage of the id space a transaction draws from (STAMP `-q`);
    /// smaller = hotter rows.
    pub query_range_pct: u32,
    /// Percentage of transactions that are UpdateTables — the paper's
    /// Fig. 5 contention knob. The remainder splits 90/10 between
    /// MakeReservation and DeleteCustomer.
    pub update_pct: u32,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for VacationConfig {
    fn default() -> Self {
        VacationConfig {
            num_relations: 128,
            num_queries: 4,
            query_range_pct: 60,
            update_pct: 20,
            seed: 0x7ACA,
        }
    }
}

/// A pre-generated Vacation transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VacationOp {
    /// Book the best available resource of each queried kind.
    MakeReservation {
        customer: i64,
        queries: Vec<(ResKind, i64)>,
    },
    /// Remove a customer, releasing its bookings.
    DeleteCustomer { customer: i64 },
    /// Re-price / resize rows: `(kind, id, add?, new price)`.
    UpdateTables {
        updates: Vec<(ResKind, i64, bool, i64)>,
    },
}

/// The travel-booking database.
pub struct Vacation {
    cars: Table<Reservation>,
    rooms: Table<Reservation>,
    flights: Table<Reservation>,
    customers: Table<Customer>,
    cfg: VacationConfig,
}

impl Vacation {
    /// Build and populate the database: every table gets `num_relations`
    /// rows with randomized capacity and price (as STAMP's
    /// `manager_add*` population pass), drawn id by id, car, room, flight.
    /// The indexes are built in plain memory ([`TxRBMap::with_entries`]),
    /// node for node as one insert transaction per row would leave them.
    pub fn new(cfg: VacationConfig) -> Self {
        assert!(cfg.num_relations > 0);
        assert!(cfg.num_queries > 0);
        assert!((1..=100).contains(&cfg.query_range_pct));
        assert!(cfg.update_pct <= 100);
        let cap = cfg.num_relations as usize + 8;
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x7AB1E5);
        let mut rows: [Vec<(i64, Option<TVar<Reservation>>)>; 3] = Default::default();
        for id in 0..cfg.num_relations {
            for kind in ResKind::all() {
                let row = Reservation {
                    total: rng.random_range(20..=100),
                    used: 0,
                    price: rng.random_range(50..=550),
                };
                rows[*kind as usize].push((id, Some(TVar::new(row))));
            }
        }
        let [cars, rooms, flights] = rows.map(|rows| TxRBMap::with_entries(cap, rows));
        Vacation {
            cars,
            rooms,
            flights,
            customers: TxRBMap::new(cap),
            cfg,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &VacationConfig {
        &self.cfg
    }

    /// The index of `kind`'s table: row id → the handle of the row's
    /// object. Audits only; transactions go through [`run_op`](Self::run_op).
    pub fn table(&self, kind: ResKind) -> &Table<Reservation> {
        match kind {
            ResKind::Car => &self.cars,
            ResKind::Room => &self.rooms,
            ResKind::Flight => &self.flights,
        }
    }

    /// Execute one pre-generated operation inside transaction `tx`.
    /// Returns `true` if the operation changed the database.
    pub fn run_op(&self, tx: &mut Txn, op: &VacationOp) -> TxResult<bool> {
        match op {
            VacationOp::MakeReservation { customer, queries } => {
                self.make_reservation(tx, *customer, queries)
            }
            VacationOp::DeleteCustomer { customer } => self.delete_customer(tx, *customer),
            VacationOp::UpdateTables { updates } => self.update_tables(tx, updates),
        }
    }

    /// STAMP `client_run` action 0: query, pick the priciest available
    /// resource per kind, book them.
    fn make_reservation(
        &self,
        tx: &mut Txn,
        customer: i64,
        queries: &[(ResKind, i64)],
    ) -> TxResult<bool> {
        // Phase 1 (reads): best available row per kind.
        let mut best: [Option<(i64, i64)>; 3] = [None; 3]; // (id, price)
        for &(kind, id) in queries {
            if let Some(row) = with_row(self.table(kind), tx, id, |tx, r| Ok(*tx.read(r)?))? {
                if row.free() > 0 {
                    let slot = &mut best[kind as usize];
                    if slot.is_none_or(|(_, p)| row.price > p) {
                        *slot = Some((id, row.price));
                    }
                }
            }
        }
        if best.iter().all(|b| b.is_none()) {
            return Ok(false);
        }
        // Phase 2 (writes): create the customer if needed, book each pick.
        if !self.customers.contains_key(tx, customer)? {
            let record = Some(TVar::new(Customer::default()));
            self.customers.insert(tx, customer, record)?;
        }
        let mut booked = false;
        for kind in ResKind::all() {
            let Some((id, price)) = best[*kind as usize] else {
                continue;
            };
            let ok = with_row(self.table(*kind), tx, id, |tx, r| {
                tx.modify(r, |r| {
                    if r.used < r.total {
                        r.used += 1;
                    }
                })
            })?;
            if ok.is_some() {
                with_row(&self.customers, tx, customer, |tx, c| {
                    tx.modify(c, |c| c.bookings.push((*kind, id, price)))
                })?;
                booked = true;
            }
        }
        Ok(booked)
    }

    /// STAMP `client_run` action 1: release the customer's bookings and
    /// drop the record.
    fn delete_customer(&self, tx: &mut Txn, customer: i64) -> TxResult<bool> {
        let Some(cell) = self.customers.remove_entry(tx, customer)? else {
            return Ok(false);
        };
        let record = tx.read(row(&cell))?;
        for &(kind, id, _) in &record.bookings {
            with_row(self.table(kind), tx, id, |tx, r| {
                tx.modify(r, |r| {
                    if r.used > 0 {
                        r.used -= 1;
                    }
                })
            })?;
        }
        Ok(true)
    }

    /// STAMP `client_run` action 2: grow/re-price or shrink rows.
    fn update_tables(&self, tx: &mut Txn, updates: &[(ResKind, i64, bool, i64)]) -> TxResult<bool> {
        let mut changed = false;
        for &(kind, id, add, price) in updates {
            let did = with_row(self.table(kind), tx, id, |tx, r| {
                tx.modify(r, |r| {
                    if add {
                        r.price = price;
                        r.total += 1;
                    } else if r.free() > 0 {
                        r.total -= 1;
                    }
                })
            })?;
            changed |= did.is_some();
        }
        Ok(changed)
    }

    // ---- non-transactional audits ---------------------------------------

    /// Verify at quiescence: `0 ≤ used ≤ total` on every row, and every
    /// row's `used` equals the bookings customers actually hold on it.
    pub fn check_consistency(&self) {
        let mut held: std::collections::HashMap<(u8, i64), i64> = std::collections::HashMap::new();
        for (_, cust) in rows(&self.customers) {
            for (kind, id, _) in cust.bookings {
                *held.entry((kind as u8, id)).or_insert(0) += 1;
            }
        }
        for kind in ResKind::all() {
            for (id, row) in rows(self.table(*kind)) {
                assert!(
                    row.used >= 0 && row.used <= row.total,
                    "{kind:?} row {id}: used {} outside [0, {}]",
                    row.used,
                    row.total
                );
                let h = held.get(&(*kind as u8, id)).copied().unwrap_or(0);
                assert_eq!(
                    row.used, h,
                    "{kind:?} row {id}: used {} but customers hold {h}",
                    row.used
                );
            }
            self.table(*kind).check_invariants();
        }
        self.customers.check_invariants();
    }

    /// Total bookings across all customers (diagnostics).
    pub fn total_bookings(&self) -> usize {
        rows(&self.customers)
            .into_iter()
            .map(|(_, c)| c.bookings.len())
            .sum()
    }
}

/// Deterministic stream of [`VacationOp`]s with the Fig. 5 contention knob.
pub struct VacationOpGenerator {
    rng: SmallRng,
    num_relations: i64,
    num_queries: usize,
    range: i64,
    update_pct: u32,
}

impl VacationOpGenerator {
    /// Stream for thread `thread` against a database configured with `cfg`.
    pub fn new(cfg: &VacationConfig, thread: usize) -> Self {
        let range =
            ((cfg.num_relations as f64) * f64::from(cfg.query_range_pct) / 100.0).ceil() as i64;
        VacationOpGenerator {
            rng: SmallRng::seed_from_u64(
                cfg.seed ^ (thread as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
            ),
            num_relations: cfg.num_relations,
            num_queries: cfg.num_queries,
            range: range.max(1),
            update_pct: cfg.update_pct,
        }
    }

    fn random_kind(&mut self) -> ResKind {
        match self.rng.random_range(0..3) {
            0 => ResKind::Car,
            1 => ResKind::Room,
            _ => ResKind::Flight,
        }
    }

    /// Next transaction.
    pub fn next_op(&mut self) -> VacationOp {
        let roll: u32 = self.rng.random_range(0..100);
        if roll < self.update_pct {
            let updates = (0..self.num_queries)
                .map(|_| {
                    (
                        self.random_kind(),
                        self.rng.random_range(0..self.range),
                        self.rng.random_bool(0.5),
                        self.rng.random_range(50..=550),
                    )
                })
                .collect();
            VacationOp::UpdateTables { updates }
        } else if roll < self.update_pct + (100 - self.update_pct) / 10 {
            VacationOp::DeleteCustomer {
                customer: self.rng.random_range(0..self.num_relations),
            }
        } else {
            let queries = (0..self.num_queries)
                .map(|_| (self.random_kind(), self.rng.random_range(0..self.range)))
                .collect();
            VacationOp::MakeReservation {
                customer: self.rng.random_range(0..self.num_relations),
                queries,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wtm_stm::cm::AbortSelfManager;
    use wtm_stm::{CmDispatch, EngineKind, Stm};

    fn small_cfg() -> VacationConfig {
        VacationConfig {
            num_relations: 24,
            num_queries: 3,
            query_range_pct: 100,
            update_pct: 20,
            seed: 42,
        }
    }

    #[test]
    fn populate_fills_all_tables() {
        let v = Vacation::new(small_cfg());
        for kind in ResKind::all() {
            let rows = rows(v.table(*kind));
            assert_eq!(rows.len(), 24);
            for (_, r) in rows {
                assert!(r.total >= 20 && r.used == 0 && r.price >= 50);
            }
        }
        v.check_consistency();
    }

    #[test]
    fn reservation_books_best_available() {
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let v = Vacation::new(small_cfg());
        let ctx = stm.thread(0);
        let op = VacationOp::MakeReservation {
            customer: 5,
            queries: vec![(ResKind::Car, 0), (ResKind::Car, 1), (ResKind::Room, 2)],
        };
        assert!(ctx.atomic(|tx| v.run_op(tx, &op)));
        assert_eq!(v.total_bookings(), 2, "one car + one room");
        v.check_consistency();
        // The booked car is the pricier of rows 0 and 1.
        let p0 = rows(&v.cars)[0].1;
        let p1 = rows(&v.cars)[1].1;
        let booked = if p0.price >= p1.price { p0 } else { p1 };
        assert_eq!(booked.used, 1);
    }

    #[test]
    fn delete_customer_releases_bookings() {
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let v = Vacation::new(small_cfg());
        let ctx = stm.thread(0);
        let book = VacationOp::MakeReservation {
            customer: 7,
            queries: vec![(ResKind::Flight, 3)],
        };
        assert!(ctx.atomic(|tx| v.run_op(tx, &book)));
        assert_eq!(v.total_bookings(), 1);
        let del = VacationOp::DeleteCustomer { customer: 7 };
        assert!(ctx.atomic(|tx| v.run_op(tx, &del)));
        assert_eq!(v.total_bookings(), 0);
        v.check_consistency();
        // Deleting again is a no-op.
        assert!(!ctx.atomic(|tx| v.run_op(tx, &del)));
    }

    #[test]
    fn update_tables_resizes_and_reprices() {
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let v = Vacation::new(small_cfg());
        let ctx = stm.thread(0);
        let before = rows(&v.rooms)[4].1;
        let op = VacationOp::UpdateTables {
            updates: vec![(ResKind::Room, 4, true, 333)],
        };
        assert!(ctx.atomic(|tx| v.run_op(tx, &op)));
        let after = rows(&v.rooms)[4].1;
        assert_eq!(after.price, 333);
        assert_eq!(after.total, before.total + 1);
        let shrink = VacationOp::UpdateTables {
            updates: vec![(ResKind::Room, 4, false, 0)],
        };
        assert!(ctx.atomic(|tx| v.run_op(tx, &shrink)));
        assert_eq!(rows(&v.rooms)[4].1.total, before.total);
        v.check_consistency();
    }

    #[test]
    fn generator_respects_update_percentage() {
        let cfg = VacationConfig {
            update_pct: 100,
            ..small_cfg()
        };
        let mut g = VacationOpGenerator::new(&cfg, 0);
        for _ in 0..100 {
            assert!(matches!(g.next_op(), VacationOp::UpdateTables { .. }));
        }
        let cfg0 = VacationConfig {
            update_pct: 0,
            ..small_cfg()
        };
        let mut g0 = VacationOpGenerator::new(&cfg0, 0);
        let dels = (0..1000)
            .filter(|_| matches!(g0.next_op(), VacationOp::DeleteCustomer { .. }))
            .count();
        assert!(dels > 50 && dels < 150, "≈10% deletes, got {dels}");
    }

    #[test]
    fn random_workload_keeps_consistency() {
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let v = Vacation::new(small_cfg());
        let ctx = stm.thread(0);
        let mut g = VacationOpGenerator::new(v.config(), 0);
        for _ in 0..400 {
            let op = g.next_op();
            ctx.atomic(|tx| v.run_op(tx, &op));
        }
        v.check_consistency();
    }

    #[test]
    fn concurrent_workload_keeps_consistency() {
        let stm = Stm::new(Arc::new(wtm_stm::managers::Greedy), 3);
        let v = Arc::new(Vacation::new(small_cfg()));
        std::thread::scope(|s| {
            for t in 0..3usize {
                let ctx = stm.thread(t);
                let v = Arc::clone(&v);
                s.spawn(move || {
                    let mut g = VacationOpGenerator::new(v.config(), t);
                    for _ in 0..120 {
                        let op = g.next_op();
                        ctx.atomic(|tx| v.run_op(tx, &op));
                    }
                });
            }
        });
        v.check_consistency();
    }

    /// A write to a row conflicts with the transactions that use the row,
    /// not with every lookup whose path passes the row's node. Attempt A
    /// looks up car 1, whose path starts at the root; inside A's body a
    /// second thread commits an `UpdateTables` on car 0, the root's own
    /// row; then A books car 1. A must commit on its first attempt. The
    /// manager aborts the enemy, so a layout whose re-price rewrites the
    /// root node makes A retry rather than hang.
    #[test]
    fn a_booking_does_not_invalidate_a_concurrent_lookup() {
        for engine in [EngineKind::Eager, EngineKind::Lazy] {
            // Two rows per table: key 0, inserted first, is the root and
            // key 1 its child.
            let stm = Stm::with_engine(CmDispatch::AbortEnemy, 2, engine);
            let v = Vacation::new(VacationConfig {
                num_relations: 2,
                ..small_cfg()
            });
            let reprice = VacationOp::UpdateTables {
                updates: vec![(ResKind::Car, 0, true, 999)],
            };
            let book = VacationOp::MakeReservation {
                customer: 3,
                queries: vec![(ResKind::Car, 1)],
            };
            let mut attempts = 0;
            let booked = stm.thread(0).atomic(|tx| {
                attempts += 1;
                with_row(&v.cars, tx, 1, |tx, r| Ok(*tx.read(r)?))?;
                if attempts == 1 {
                    std::thread::scope(|s| {
                        s.spawn(|| stm.thread(1).atomic(|tx| v.run_op(tx, &reprice)));
                    });
                }
                v.run_op(tx, &book)
            });
            assert!(booked);
            assert_eq!(attempts, 1, "{engine}: the lookup was invalidated");
            assert_eq!(stm.aggregate().aborts, 0, "{engine}");
            assert_eq!(rows(&v.cars)[0].1.price, 999);
            assert_eq!(rows(&v.cars)[1].1.used, 1);
            v.check_consistency();
        }
    }
}
