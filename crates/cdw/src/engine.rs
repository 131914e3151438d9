//! The engine facade: a thread-safe CDW handle with configuration.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use etlv_cloudstore::store::ObjectStore;
use etlv_sql::ast::{InsertSource, ObjectName, SelectStmt, TableRef};
use etlv_sql::{parse_statements, Dialect, SqlType, Stmt};
use parking_lot::{Mutex, RwLock};

use crate::catalog::{canonical_name, Catalog, Table, TableGuard, TableSet};
use crate::error::CdwError;
pub use crate::exec::QueryResult;
use crate::exec::{execute, ExecCtx};
use crate::plan::PlanStats;

/// Fault-injection hook consulted before each statement. Returning `true`
/// makes the statement fail with [`CdwError::Transient`] *before* any
/// execution, so the failure is always side-effect free.
pub type TransientFaultHook = Arc<dyn Fn() -> bool + Send + Sync>;

/// Observation callback invoked once after every statement:
/// `(elapsed, ok, access-path counters)`. The counters are empty for DDL
/// and for a statement the transient-fault hook failed. Installed by the
/// virtualizer to feed its metrics registry; this crate carries no
/// metrics machinery of its own.
pub type ExecObserver = Arc<dyn Fn(Duration, bool, &PlanStats) + Send + Sync>;

/// Lock-contention observation callback: `(site, wait, contended)` per
/// acquisition of the catalog map or a per-table lock on the DML
/// path. Sites are `"cdw.catalog"` and
/// `"cdw.table/<canonical name>"`. An uncontended acquisition reports
/// `(site, ZERO, false)`; a blocked one reports how long it waited.
/// Installed by the virtualizer to feed its lock-site profiles; this
/// crate carries no metrics machinery of its own.
pub type LockObserver = Arc<dyn Fn(&str, Duration, bool) + Send + Sync>;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct CdwConfig {
    /// Enforce UNIQUE constraints natively. Defaults to `false` — most
    /// cloud warehouses treat UNIQUE as informational, which is why the
    /// virtualizer carries its own uniqueness emulation (§7).
    pub native_unique: bool,
    /// Simulated per-statement round-trip latency between the client
    /// (virtualizer) and the warehouse. This is what makes the Figure 11
    /// singleton-insert baseline slow.
    pub statement_latency: Duration,
    /// Use index-aware access planning. Defaults to `true`; turning it
    /// off forces full scans and nested-loop joins (the key index is
    /// still maintained), which is the reference engine for differential
    /// tests.
    pub planner: bool,
}

impl Default for CdwConfig {
    fn default() -> Self {
        CdwConfig {
            native_unique: false,
            statement_latency: Duration::ZERO,
            planner: true,
        }
    }
}

/// A simulated Cloud Data Warehouse.
///
/// Cheaply cloneable (`Arc` internally); statements serialize on an
/// internal lock, modelling a single warehouse endpoint.
#[derive(Clone)]
pub struct Cdw {
    inner: Arc<Inner>,
}

struct Inner {
    catalog: RwLock<Catalog>,
    store: Option<Arc<dyn ObjectStore>>,
    config: CdwConfig,
    transient_fault: Mutex<Option<TransientFaultHook>>,
    exec_observer: Mutex<Option<ExecObserver>>,
    lock_observer: Mutex<Option<LockObserver>>,
    plan_totals: Mutex<PlanStats>,
}

impl Cdw {
    /// New warehouse with default configuration and no object store.
    pub fn new() -> Cdw {
        Cdw::with_config(CdwConfig::default(), None)
    }

    /// New warehouse with explicit configuration and optional COPY source.
    pub fn with_config(config: CdwConfig, store: Option<Arc<dyn ObjectStore>>) -> Cdw {
        Cdw {
            inner: Arc::new(Inner {
                catalog: RwLock::new(Catalog::new()),
                store,
                config,
                transient_fault: Mutex::new(None),
                exec_observer: Mutex::new(None),
                lock_observer: Mutex::new(None),
                plan_totals: Mutex::new(PlanStats::default()),
            }),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &CdwConfig {
        &self.inner.config
    }

    /// Execute one SQL statement (CDW dialect).
    pub fn execute(&self, sql: &str) -> Result<QueryResult, CdwError> {
        let stmts = parse_statements(sql, Dialect::Cdw)?;
        let [stmt] = stmts.as_slice() else {
            return Err(CdwError::Unsupported(
                "execute() takes exactly one statement; use execute_script".into(),
            ));
        };
        self.execute_stmt(stmt)
    }

    /// Install (or clear) a transient-fault hook. Shared across all clones
    /// of this warehouse handle; used by the virtualizer's deterministic
    /// fault injection.
    pub fn set_transient_fault(&self, hook: Option<TransientFaultHook>) {
        *self.inner.transient_fault.lock() = hook;
    }

    /// Install (or clear) the statement observer. Shared across all
    /// clones of this warehouse handle. The observer sees every statement
    /// — including ones failed by the transient-fault hook — with its
    /// wall time, outcome and access-path counters (index seeks, full
    /// scans, index maintenance).
    pub fn set_exec_observer(&self, observer: Option<ExecObserver>) {
        *self.inner.exec_observer.lock() = observer;
    }

    /// Install (or clear) a lock observer. Shared across all clones of
    /// this warehouse handle. The observer sees every catalog-map and
    /// per-table lock acquisition on the DML path with its wait time and
    /// whether it had to block.
    pub fn set_lock_observer(&self, observer: Option<LockObserver>) {
        *self.inner.lock_observer.lock() = observer;
    }

    /// Cumulative access-path counters since the engine was created.
    pub fn plan_stats(&self) -> PlanStats {
        *self.inner.plan_totals.lock()
    }

    /// Per-statement prelude: consult the transient-fault hook (failing
    /// side-effect free), then model the client↔warehouse round-trip
    /// latency.
    fn begin_statement(&self) -> Result<(), CdwError> {
        let hook = self.inner.transient_fault.lock().clone();
        if let Some(hook) = hook {
            if hook() {
                return Err(CdwError::Transient(
                    "injected transient warehouse failure".into(),
                ));
            }
        }
        if !self.inner.config.statement_latency.is_zero() {
            std::thread::sleep(self.inner.config.statement_latency);
        }
        Ok(())
    }

    /// Execute one pre-parsed statement, then fold its access-path
    /// counters into the totals and report it to the observer. Counters
    /// are kept on success *and* failure — a statement that scanned and
    /// then aborted still scanned.
    pub fn execute_stmt(&self, stmt: &Stmt) -> Result<QueryResult, CdwError> {
        let start = std::time::Instant::now();
        let mut stats = PlanStats::default();
        let result = self.begin_statement().and_then(|()| match stmt {
            // DDL takes the catalog map's write lock; DML never does.
            Stmt::CreateTable(ct) => {
                let table = Table::from_create(ct.name.dotted(), &ct.columns, &ct.constraints)?;
                self.inner.catalog.write().create(table, ct.if_not_exists)?;
                Ok(QueryResult::dml(0))
            }
            Stmt::DropTable { name, if_exists } => {
                self.inner
                    .catalog
                    .write()
                    .drop_table(&name.dotted(), *if_exists)?;
                Ok(QueryResult::dml(0))
            }
            _ => self.run_dml(stmt, &mut stats),
        });
        if !stats.is_empty() {
            self.inner.plan_totals.lock().merge(&stats);
        }
        let observer = self.inner.exec_observer.lock().clone();
        if let Some(observer) = observer {
            observer(start.elapsed(), result.is_ok(), &stats);
        }
        result
    }

    /// Execute a non-DDL statement: resolve the tables it touches, lock
    /// exactly those (write locks for mutation targets, read locks for
    /// sources, acquired in sorted-name order to stay deadlock-free), and
    /// run the executor, leaving its access-path counters in `stats`.
    fn run_dml(&self, stmt: &Stmt, stats: &mut PlanStats) -> Result<QueryResult, CdwError> {
        let specs = stmt_tables(stmt);
        let lock_obs = self.inner.lock_observer.lock().clone();
        // Clone the per-table lock handles out while holding only the
        // catalog map's read lock; names that don't resolve are simply
        // skipped so execution raises TableNotFound at the same place the
        // old single-lock catalog lookup would have.
        let handles: Vec<(String, bool, Arc<RwLock<Table>>)> = {
            let catalog = read_observed(&self.inner.catalog, "cdw.catalog", lock_obs.as_ref());
            specs
                .iter()
                .filter_map(|(name, write)| {
                    catalog.handle_opt(name).map(|h| (name.clone(), *write, h))
                })
                .collect()
        };
        let mut tables = TableSet::new();
        for (name, write, handle) in &handles {
            let guard = match &lock_obs {
                None if *write => TableGuard::Write(handle.write()),
                None => TableGuard::Read(handle.read()),
                Some(obs) => {
                    // The site string is only built when someone listens.
                    let site = format!("cdw.table/{name}");
                    if *write {
                        TableGuard::Write(write_observed(handle, &site, Some(obs)))
                    } else {
                        TableGuard::Read(read_observed(handle, &site, Some(obs)))
                    }
                }
            };
            tables.insert(name.clone(), guard);
        }
        let mut ctx = ExecCtx {
            tables,
            store: self.inner.store.as_ref(),
            native_unique: self.inner.config.native_unique,
            planner: self.inner.config.planner,
            stats: Cell::new(PlanStats::default()),
        };
        let result = execute(&mut ctx, stmt);
        *stats = ctx.stats.get();
        result
    }

    /// Execute a `;`-separated script, stopping at the first error.
    /// Returns the result of the last statement.
    pub fn execute_script(&self, sql: &str) -> Result<QueryResult, CdwError> {
        let stmts = parse_statements(sql, Dialect::Cdw)?;
        let mut last = QueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
            affected: 0,
        };
        for stmt in &stmts {
            last = self.execute_stmt(stmt)?;
        }
        Ok(last)
    }

    /// Exhaustively check every table's key index against its rows.
    /// Test-harness hook for the differential suite.
    pub fn validate_indexes(&self) -> Result<(), String> {
        let catalog = self.inner.catalog.read();
        for name in catalog.table_names() {
            if let Some(handle) = catalog.handle_opt(&name) {
                handle.read().validate_indexes()?;
            }
        }
        Ok(())
    }

    /// Number of rows in `table` (test/bench convenience).
    pub fn table_len(&self, table: &str) -> Result<usize, CdwError> {
        let handle = self.inner.catalog.read().handle(table)?;
        let len = handle.read().len();
        Ok(len)
    }

    /// Whether `table` exists.
    pub fn table_exists(&self, table: &str) -> bool {
        self.inner.catalog.read().exists(table)
    }

    /// Column names and types of `table`.
    pub fn table_schema(&self, table: &str) -> Result<Vec<(String, SqlType)>, CdwError> {
        let handle = self.inner.catalog.read().handle(table)?;
        let t = handle.read();
        Ok(t.columns.iter().map(|c| (c.name.clone(), c.ty)).collect())
    }

    /// Names of the unique-constrained columns of `table`, if a unique
    /// constraint is declared. Whether the engine *enforces* it is
    /// governed by [`CdwConfig::native_unique`] — the virtualizer reads
    /// this metadata to drive its uniqueness emulation.
    pub fn table_unique_columns(&self, table: &str) -> Result<Option<Vec<String>>, CdwError> {
        let handle = self.inner.catalog.read().handle(table)?;
        let t = handle.read();
        Ok(t.pk.as_ref().map(|pk| {
            pk.columns
                .iter()
                .map(|&i| t.columns[i].name.clone())
                .collect()
        }))
    }
}

/// Shared acquisition of `lock`, reported to `obs` when present: the
/// try-lock fast path counts an uncontended acquire, the blocking path
/// times how long the caller waited.
fn read_observed<'a, T>(
    lock: &'a RwLock<T>,
    site: &str,
    obs: Option<&LockObserver>,
) -> parking_lot::RwLockReadGuard<'a, T> {
    let Some(obs) = obs else {
        return lock.read();
    };
    if let Some(guard) = lock.try_read() {
        obs(site, Duration::ZERO, false);
        return guard;
    }
    let start = std::time::Instant::now();
    let guard = lock.read();
    obs(site, start.elapsed(), true);
    guard
}

/// Exclusive counterpart of [`read_observed`].
fn write_observed<'a, T>(
    lock: &'a RwLock<T>,
    site: &str,
    obs: Option<&LockObserver>,
) -> parking_lot::RwLockWriteGuard<'a, T> {
    let Some(obs) = obs else {
        return lock.write();
    };
    if let Some(guard) = lock.try_write() {
        obs(site, Duration::ZERO, false);
        return guard;
    }
    let start = std::time::Instant::now();
    let guard = lock.write();
    obs(site, start.elapsed(), true);
    guard
}

/// The tables a statement touches, as `(canonical name, needs write)`
/// pairs — sorted by name (the lock-acquisition order) with write
/// winning over read on duplicates. DDL returns an empty list; it is
/// handled against the catalog map directly.
fn stmt_tables(stmt: &Stmt) -> Vec<(String, bool)> {
    fn add(out: &mut Vec<(String, bool)>, name: &ObjectName, write: bool) {
        out.push((canonical_name(&name.dotted()), write));
    }
    fn from_tables(out: &mut Vec<(String, bool)>, from: &TableRef) {
        match from {
            TableRef::Named { name, .. } => add(out, name, false),
            TableRef::Join { left, right, .. } => {
                from_tables(out, left);
                from_tables(out, right);
            }
            TableRef::Subquery { query, .. } => select_tables(out, query),
        }
    }
    fn select_tables(out: &mut Vec<(String, bool)>, sel: &SelectStmt) {
        if let Some(from) = &sel.from {
            from_tables(out, from);
        }
    }
    let mut out = Vec::new();
    match stmt {
        Stmt::CreateTable(_) | Stmt::DropTable { .. } => {}
        Stmt::Insert(ins) => {
            add(&mut out, &ins.table, true);
            if let InsertSource::Select(sel) = &ins.source {
                select_tables(&mut out, sel);
            }
        }
        Stmt::Update(u) => add(&mut out, &u.table, true),
        Stmt::Delete(d) => add(&mut out, &d.table, true),
        Stmt::Select(sel) => select_tables(&mut out, sel),
        Stmt::Copy(c) => add(&mut out, &c.table, true),
    }
    out.sort();
    out.dedup_by(|next, prev| {
        if next.0 == prev.0 {
            prev.1 |= next.1;
            true
        } else {
            false
        }
    });
    out
}

impl Default for Cdw {
    fn default() -> Self {
        Cdw::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlv_cloudstore::{compress, MemStore};
    use etlv_protocol::data::{Date, Value};

    fn setup() -> Cdw {
        let cdw = Cdw::new();
        cdw.execute(
            "CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(5) NOT NULL, CUST_NAME VARCHAR(50), JOIN_DATE DATE, PRIMARY KEY (CUST_ID))",
        )
        .unwrap();
        cdw
    }

    #[test]
    fn transient_fault_hook_fails_before_execution() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let cdw = setup();
        let remaining = Arc::new(AtomicU32::new(2));
        let hook_remaining = Arc::clone(&remaining);
        cdw.set_transient_fault(Some(Arc::new(move || {
            hook_remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
        })));
        let sql = "INSERT INTO PROD.CUSTOMER VALUES ('123', 'Smith', DATE '2012-01-01')";
        // Two injected failures, each with no side effects, then success.
        for _ in 0..2 {
            let err = cdw.execute(sql).unwrap_err();
            assert!(err.is_transient(), "{err}");
            assert_eq!(cdw.table_len("PROD.CUSTOMER").unwrap(), 0);
        }
        cdw.execute(sql).unwrap();
        assert_eq!(cdw.table_len("PROD.CUSTOMER").unwrap(), 1);
        // Clearing the hook stops injection.
        cdw.set_transient_fault(None);
        cdw.execute("SELECT CUST_ID FROM PROD.CUSTOMER").unwrap();
    }

    #[test]
    fn exec_observer_sees_statements_and_failures() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cdw = setup();
        let statements = Arc::new(AtomicU64::new(0));
        let failures = Arc::new(AtomicU64::new(0));
        let (s, f) = (statements.clone(), failures.clone());
        cdw.set_exec_observer(Some(Arc::new(move |_elapsed, ok, _stats| {
            s.fetch_add(1, Ordering::Relaxed);
            if !ok {
                f.fetch_add(1, Ordering::Relaxed);
            }
        })));

        cdw.execute("INSERT INTO PROD.CUSTOMER VALUES ('1', 'A', DATE '2012-01-01')")
            .unwrap();
        cdw.execute("INSERT INTO PROD.CUSTOMER VALUES ('2', 'B', DATE '2012-01-02')")
            .unwrap();
        assert!(cdw.execute("SELECT * FROM NO.SUCH_TABLE").is_err());

        assert_eq!(statements.load(Ordering::Relaxed), 3);
        assert_eq!(failures.load(Ordering::Relaxed), 1);

        // Clearing the observer stops reporting.
        cdw.set_exec_observer(None);
        cdw.execute("SELECT CUST_ID FROM PROD.CUSTOMER").unwrap();
        assert_eq!(statements.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn lock_observer_reports_catalog_and_table_sites() {
        use std::sync::Mutex as StdMutex;
        let cdw = setup();
        let seen: Arc<StdMutex<Vec<(String, bool)>>> = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        cdw.set_lock_observer(Some(Arc::new(move |site, _wait, contended| {
            sink.lock().unwrap().push((site.to_string(), contended));
        })));

        cdw.execute("INSERT INTO PROD.CUSTOMER VALUES ('1', 'a', NULL)")
            .unwrap();
        cdw.execute("INSERT INTO PROD.CUSTOMER VALUES ('2', 'b', NULL)")
            .unwrap();

        let seen = seen.lock().unwrap().clone();
        let catalog = seen.iter().filter(|(s, _)| s == "cdw.catalog").count();
        let table = seen
            .iter()
            .filter(|(s, _)| s == "cdw.table/PROD.CUSTOMER")
            .count();
        assert_eq!(catalog, 2, "one catalog read per statement: {seen:?}");
        assert_eq!(table, 2, "one table write per statement: {seen:?}");
        // Single-threaded: every acquisition takes the fast path.
        assert!(seen.iter().all(|(_, contended)| !contended), "{seen:?}");

        // Clearing the observer stops reporting.
        cdw.set_lock_observer(None);
        cdw.execute("SELECT CUST_ID FROM PROD.CUSTOMER").unwrap();
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn create_insert_select() {
        let cdw = setup();
        let r = cdw
            .execute("INSERT INTO PROD.CUSTOMER VALUES ('123', 'Smith', DATE '2012-01-01')")
            .unwrap();
        assert_eq!(r.affected, 1);
        let r = cdw
            .execute("SELECT CUST_ID, JOIN_DATE FROM PROD.CUSTOMER")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Str("123".into()));
        assert_eq!(r.rows[0][1], Value::Date(Date::new(2012, 1, 1).unwrap()));
    }

    #[test]
    fn set_oriented_insert_select_aborts_wholesale() {
        let cdw = setup();
        cdw.execute("CREATE TABLE STG (ID VARCHAR(5), NAME VARCHAR(50), D VARCHAR(10))")
            .unwrap();
        cdw.execute_script(
            "INSERT INTO STG VALUES ('1', 'a', '2012-01-01');
             INSERT INTO STG VALUES ('2', 'b', 'xxxx');
             INSERT INTO STG VALUES ('3', 'c', '2012-01-03');",
        )
        .unwrap();
        // The middle row has a bad date: the whole INSERT..SELECT aborts and
        // the target stays empty — and the error does NOT say which row.
        let err = cdw
            .execute("INSERT INTO PROD.CUSTOMER SELECT ID, NAME, TO_DATE(D, 'YYYY-MM-DD') FROM STG")
            .unwrap_err();
        assert!(err.is_bulk_abort(), "{err}");
        assert!(!format!("{err}").contains("row"), "no row identity: {err}");
        assert_eq!(err.failed_row(), None, "STG has no integer key");
        assert_eq!(cdw.table_len("PROD.CUSTOMER").unwrap(), 0);
    }

    #[test]
    fn a_projection_abort_names_its_integer_keyed_row() {
        let cdw = setup();
        cdw.execute(
            "CREATE TABLE STG (SEQ BIGINT, ID VARCHAR(9), D VARCHAR(10), PRIMARY KEY (SEQ))",
        )
        .unwrap();
        // Stored out of key order: the first failing row in storage order
        // is the one named.
        cdw.execute_script(
            "INSERT INTO STG VALUES (3, '3', 'yyyy');
             INSERT INTO STG VALUES (1, '1', '2012-01-01');
             INSERT INTO STG VALUES (2, 'toolong99', 'xxxx');",
        )
        .unwrap();
        let dml = "INSERT INTO PROD.CUSTOMER SELECT ID, 'n', TO_DATE(D, 'YYYY-MM-DD') FROM STG";
        let err = cdw
            .execute(&format!("{dml} WHERE SEQ >= 1 AND SEQ < 4"))
            .unwrap_err();
        let CdwError::BulkAbort { position, row, .. } = err else {
            panic!("{err}")
        };
        assert_eq!((position, row), (Some(2), Some(3)));
        // Row 2's date fails in the projection before its ID is coerced.
        let err = cdw.execute(&format!("{dml} WHERE SEQ = 2")).unwrap_err();
        assert_eq!(err.failed_row(), Some(2));
        // Coercion into the target names no row.
        cdw.execute("UPDATE STG SET D = '2012-01-02' WHERE SEQ = 2")
            .unwrap();
        let err = cdw.execute(&format!("{dml} WHERE SEQ = 2")).unwrap_err();
        assert!(err.is_bulk_abort() && err.failed_row().is_none(), "{err}");
    }

    #[test]
    fn native_unique_enforcement_toggle() {
        // Off (default): duplicates accepted.
        let cdw = setup();
        cdw.execute("INSERT INTO PROD.CUSTOMER VALUES ('1', 'a', NULL)")
            .unwrap();
        cdw.execute("INSERT INTO PROD.CUSTOMER VALUES ('1', 'b', NULL)")
            .unwrap();
        assert_eq!(cdw.table_len("PROD.CUSTOMER").unwrap(), 2);

        // On: second insert aborts.
        let cdw = Cdw::with_config(
            CdwConfig {
                native_unique: true,
                ..Default::default()
            },
            None,
        );
        cdw.execute("CREATE TABLE T (A INTEGER, PRIMARY KEY (A))")
            .unwrap();
        cdw.execute("INSERT INTO T VALUES (1)").unwrap();
        let err = cdw.execute("INSERT INTO T VALUES (1)").unwrap_err();
        assert!(err.is_uniqueness());
        assert_eq!(cdw.table_len("T").unwrap(), 1);
        // Batch with internal duplicate also aborts atomically.
        let err = cdw.execute("INSERT INTO T VALUES (2), (2)").unwrap_err();
        assert!(err.is_uniqueness());
        assert_eq!(cdw.table_len("T").unwrap(), 1);
    }

    #[test]
    fn not_null_violation_aborts() {
        let cdw = setup();
        let err = cdw
            .execute("INSERT INTO PROD.CUSTOMER VALUES (NULL, 'x', NULL)")
            .unwrap_err();
        assert!(err.is_bulk_abort());
        assert_eq!(cdw.table_len("PROD.CUSTOMER").unwrap(), 0);
    }

    #[test]
    fn update_and_delete() {
        let cdw = setup();
        cdw.execute_script(
            "INSERT INTO PROD.CUSTOMER VALUES ('1', 'a', NULL);
             INSERT INTO PROD.CUSTOMER VALUES ('2', 'b', NULL);",
        )
        .unwrap();
        let r = cdw
            .execute("UPDATE PROD.CUSTOMER SET CUST_NAME = UPPER(CUST_NAME) WHERE CUST_ID = '1'")
            .unwrap();
        assert_eq!(r.affected, 1);
        let r = cdw
            .execute("SELECT CUST_NAME FROM PROD.CUSTOMER ORDER BY CUST_ID")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Str("A".into()));
        let r = cdw
            .execute("DELETE FROM PROD.CUSTOMER WHERE CUST_ID = '2'")
            .unwrap();
        assert_eq!(r.affected, 1);
        assert_eq!(cdw.table_len("PROD.CUSTOMER").unwrap(), 1);
    }

    #[test]
    fn joins_and_aggregates() {
        let cdw = Cdw::new();
        cdw.execute_script(
            "CREATE TABLE ORDERS (ID INTEGER, CUST INTEGER, AMT DECIMAL(10,2));
             CREATE TABLE CUST (ID INTEGER, NAME VARCHAR(20));
             INSERT INTO CUST VALUES (1, 'alice'), (2, 'bob'), (3, 'carol');
             INSERT INTO ORDERS VALUES (10, 1, 5.00), (11, 1, 7.50), (12, 2, 1.25);",
        )
        .unwrap();
        let r = cdw
            .execute(
                "SELECT c.NAME, COUNT(*) AS N, SUM(o.AMT) AS TOTAL
                 FROM ORDERS o JOIN CUST c ON o.CUST = c.ID
                 GROUP BY c.NAME ORDER BY TOTAL DESC",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::Str("alice".into()));
        assert_eq!(r.rows[0][1], Value::Int(2));
        assert_eq!(r.rows[0][2].display_text(), "12.50");

        // LEFT JOIN keeps carol with NULLs.
        let r = cdw
            .execute(
                "SELECT c.NAME, o.AMT FROM CUST c LEFT JOIN ORDERS o ON o.CUST = c.ID WHERE o.AMT IS NULL",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Str("carol".into()));
    }

    #[test]
    fn global_aggregate_on_empty_table() {
        let cdw = Cdw::new();
        cdw.execute("CREATE TABLE T (A INTEGER)").unwrap();
        let r = cdw
            .execute("SELECT COUNT(*), SUM(A), AVG(A) FROM T")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert_eq!(r.rows[0][1], Value::Null);
        assert_eq!(r.rows[0][2], Value::Null);
    }

    #[test]
    fn distinct_order_limit() {
        let cdw = Cdw::new();
        cdw.execute_script(
            "CREATE TABLE T (A INTEGER);
             INSERT INTO T VALUES (3), (1), (3), (2), (1);",
        )
        .unwrap();
        let r = cdw
            .execute("SELECT DISTINCT A FROM T ORDER BY A DESC LIMIT 2")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(3)], vec![Value::Int(2)]]);
    }

    #[test]
    fn insert_values_coerces_and_validates_atomically() {
        let cdw = setup();
        let r = cdw
            .execute(
                "INSERT INTO PROD.CUSTOMER VALUES ('1', 'ann', '2012-01-01'), ('2', 'bob', NULL)",
            )
            .unwrap();
        assert_eq!(r.affected, 2);
        // The text date was coerced against the column type.
        let r = cdw
            .execute("SELECT JOIN_DATE FROM PROD.CUSTOMER WHERE CUST_ID = '1'")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Date(Date::new(2012, 1, 1).unwrap()));

        // A NOT NULL violation in any row aborts the whole statement.
        let err = cdw
            .execute("INSERT INTO PROD.CUSTOMER VALUES ('3', NULL, NULL), (NULL, NULL, NULL)")
            .unwrap_err();
        assert!(err.is_bulk_abort(), "{err}");
        assert_eq!(cdw.table_len("PROD.CUSTOMER").unwrap(), 2);

        // Width mismatches are rejected before any mutation.
        let err = cdw
            .execute("INSERT INTO PROD.CUSTOMER VALUES ('4')")
            .unwrap_err();
        assert!(matches!(err, CdwError::ColumnCount { .. }), "{err}");
        assert_eq!(cdw.table_len("PROD.CUSTOMER").unwrap(), 2);

        // An injected transient fails a multi-row INSERT before it runs.
        cdw.set_transient_fault(Some(Arc::new(|| true)));
        let err = cdw
            .execute("INSERT INTO PROD.CUSTOMER VALUES ('5', 'e', NULL), ('6', 'f', NULL)")
            .unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert_eq!(cdw.table_len("PROD.CUSTOMER").unwrap(), 2);
    }

    #[test]
    fn aggregates_compare_as_values() {
        let cdw = Cdw::new();
        cdw.execute_script(
            "CREATE TABLE X (TS TIMESTAMP, D DATE);
             INSERT INTO X VALUES ('2023-01-02 03:04:05', DATE '2023-01-01');",
        )
        .unwrap();
        for sql in [
            "SELECT TS > D FROM X",
            "SELECT MAX(TS) > MIN(D) FROM X",
            "SELECT COUNT(*) FROM X HAVING MAX(TS) > MIN(D)",
        ] {
            let r = cdw.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert_eq!(r.rows, vec![vec![Value::Int(1)]], "{sql}");
        }
    }

    #[test]
    fn evaluation_raises_the_first_error_in_row_order() {
        let cdw = Cdw::new();
        cdw.execute_script(
            "CREATE TABLE S (A VARCHAR(10), B VARCHAR(10), D DATE, E DATE);
             INSERT INTO S (A, B) VALUES ('2020-01-01', 'bad1'), ('bad2', '2020-01-01');
             CREATE TABLE X (K INTEGER);
             INSERT INTO X VALUES (1);",
        )
        .unwrap();
        // Row 1's second column fails before row 2's first column.
        for sql in [
            "SELECT TO_DATE(A, 'YYYY-MM-DD'), TO_DATE(B, 'YYYY-MM-DD') FROM S",
            "SELECT A FROM S WHERE TO_DATE(A, 'YYYY-MM-DD') IS NOT NULL
               AND TO_DATE(B, 'YYYY-MM-DD') IS NOT NULL",
            "UPDATE S SET D = TO_DATE(A, 'YYYY-MM-DD'), E = TO_DATE(B, 'YYYY-MM-DD')",
        ] {
            let err = cdw.execute(sql).unwrap_err();
            assert!(err.is_bulk_abort(), "{sql}: {err}");
            assert!(err.to_string().contains("'bad1'"), "{sql}: {err}");
        }

        // A column that does not resolve fails only where evaluation
        // reaches it.
        let r = cdw.execute("SELECT NOPE FROM X WHERE 1 = 0").unwrap();
        assert!(r.rows.is_empty());
        let r = cdw
            .execute("SELECT CASE WHEN K = 1 THEN 'one' ELSE NOPE END FROM X")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Str("one".into())]]);
        let err = cdw.execute("SELECT NOPE FROM X").unwrap_err();
        assert!(matches!(err, CdwError::ColumnNotFound(_)), "{err}");
    }

    #[test]
    fn copy_from_store() {
        let store = Arc::new(MemStore::new());
        // Two staged parts, one compressed.
        let part0 = b"1|alpha\n2|beta\n".to_vec();
        let part1 = compress::compress(b"3|gamma\n");
        store.put("staging", "job1/part-000", part0).unwrap();
        store.put("staging", "job1/part-001", part1).unwrap();

        let cdw = Cdw::with_config(CdwConfig::default(), Some(store as Arc<dyn ObjectStore>));
        cdw.execute("CREATE TABLE STG (ID VARCHAR(5), NAME VARCHAR(20))")
            .unwrap();
        let r = cdw
            .execute("COPY INTO STG FROM 'store://staging/job1/' DELIMITER '|'")
            .unwrap();
        assert_eq!(r.affected, 3);
        let r = cdw.execute("SELECT NAME FROM STG ORDER BY ID").unwrap();
        assert_eq!(r.rows[2][0], Value::Str("gamma".into()));
    }

    #[test]
    fn copy_without_store_unsupported() {
        let cdw = Cdw::new();
        cdw.execute("CREATE TABLE STG (A VARCHAR(5))").unwrap();
        assert!(matches!(
            cdw.execute("COPY INTO STG FROM 'store://b/p/'"),
            Err(CdwError::Unsupported(_))
        ));
    }

    #[test]
    fn subquery_and_having() {
        let cdw = Cdw::new();
        cdw.execute_script(
            "CREATE TABLE T (G INTEGER, V INTEGER);
             INSERT INTO T VALUES (1, 10), (1, 20), (2, 5);",
        )
        .unwrap();
        let r = cdw
            .execute("SELECT G FROM (SELECT G, SUM(V) AS S FROM T GROUP BY G HAVING SUM(V) > 10) q")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn where_on_seq_ranges() {
        // The adaptive error handler's access pattern: range scans over a
        // sequence column.
        let cdw = Cdw::new();
        cdw.execute("CREATE TABLE STG (SEQ BIGINT, V VARCHAR(10))")
            .unwrap();
        for i in 0..10 {
            cdw.execute(&format!("INSERT INTO STG VALUES ({i}, 'v{i}')"))
                .unwrap();
        }
        let r = cdw
            .execute("SELECT COUNT(*) FROM STG WHERE SEQ BETWEEN 3 AND 6")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(4));
    }

    #[test]
    fn statement_latency_applied() {
        let cdw = Cdw::with_config(
            CdwConfig {
                statement_latency: Duration::from_millis(20),
                ..Default::default()
            },
            None,
        );
        cdw.execute("CREATE TABLE T (A INTEGER)").unwrap();
        let start = std::time::Instant::now();
        cdw.execute("INSERT INTO T VALUES (1)").unwrap();
        assert!(start.elapsed() >= Duration::from_millis(19));
    }

    #[test]
    fn ambiguous_column_rejected() {
        let cdw = Cdw::new();
        cdw.execute_script(
            "CREATE TABLE A (K INTEGER); CREATE TABLE B (K INTEGER);
             INSERT INTO A VALUES (1); INSERT INTO B VALUES (1);",
        )
        .unwrap();
        let err = cdw
            .execute("SELECT K FROM A JOIN B ON A.K = B.K")
            .unwrap_err();
        assert!(matches!(err, CdwError::AmbiguousColumn(_)));
    }

    #[test]
    fn insert_with_column_subset() {
        let cdw = setup();
        cdw.execute("INSERT INTO PROD.CUSTOMER (CUST_ID) VALUES ('9')")
            .unwrap();
        let r = cdw
            .execute("SELECT CUST_NAME FROM PROD.CUSTOMER WHERE CUST_ID = '9'")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Null);
    }

    #[test]
    fn update_unique_violation_native() {
        let cdw = Cdw::with_config(
            CdwConfig {
                native_unique: true,
                ..Default::default()
            },
            None,
        );
        cdw.execute_script(
            "CREATE TABLE T (A INTEGER, PRIMARY KEY (A));
             INSERT INTO T VALUES (1); INSERT INTO T VALUES (2);",
        )
        .unwrap();
        let err = cdw.execute("UPDATE T SET A = 1 WHERE A = 2").unwrap_err();
        assert!(err.is_uniqueness());
        // No partial effects.
        let r = cdw.execute("SELECT A FROM T ORDER BY A").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    #[test]
    fn only_an_update_of_a_key_column_rekeys_the_pk() {
        let cdw = setup();
        cdw.execute(
            "INSERT INTO PROD.CUSTOMER VALUES ('1', 'a', NULL), ('2', 'b', NULL), ('3', 'c', NULL)",
        )
        .unwrap();
        let maintains = || cdw.plan_stats().index_maintains;
        let before = maintains();
        cdw.execute("UPDATE PROD.CUSTOMER SET CUST_NAME = 'z' WHERE CUST_ID = '1'")
            .unwrap();
        assert_eq!(maintains() - before, 0, "a non-key column keeps the PK");
        cdw.execute("UPDATE PROD.CUSTOMER SET CUST_ID = '9' WHERE CUST_ID = '1'")
            .unwrap();
        assert_eq!(maintains() - before, 3, "a key column re-keys every row");
        cdw.validate_indexes().unwrap();
    }

    #[test]
    fn clean_path_plan_counters_are_pinned() {
        let store = Arc::new(MemStore::new());
        let staged = b"1|C1 |a|2012-01-01\n2|C2|b|2012-01-02\n3|C3|c|bad\n";
        store
            .put("staging", "job1/part-000", staged.to_vec())
            .unwrap();
        let cdw = Cdw::with_config(CdwConfig::default(), Some(store as Arc<dyn ObjectStore>));
        cdw.execute_script(
            "CREATE TABLE STG (__SEQ BIGINT, ID VARCHAR(5), NAME VARCHAR(5), D VARCHAR(10),
               PRIMARY KEY (__SEQ));
             CREATE TABLE T (ID VARCHAR(5) NOT NULL, NAME VARCHAR(5), D DATE, PRIMARY KEY (ID));",
        )
        .unwrap();
        let range = "(S.__SEQ >= 1) AND (S.__SEQ < 3)";
        let dml = "INSERT INTO T SELECT TRIM(ID), NAME, TO_DATE(D, 'YYYY-MM-DD') FROM STG S WHERE";
        let steps = [
            "COPY INTO STG FROM 'store://staging/job1/' DELIMITER '|'".to_string(),
            format!("SELECT COUNT(*) FROM STG S JOIN T ON TRIM(S.ID) = T.ID WHERE {range}"),
            format!(
                "SELECT COUNT(*) FROM (SELECT TRIM(S.ID) AS K0 FROM STG S WHERE {range} \
                     GROUP BY TRIM(S.ID) HAVING COUNT(*) > 1) Q"
            ),
            format!("{dml} {range}"),
            "SELECT * FROM T".into(),
            format!("{dml} S.__SEQ >= 1"), // aborts on row 3's date; its seek counts
        ];
        // Cumulative (index_seeks, full_scans, index_maintains) after each.
        let pinned = [
            (0, 0, 3),
            (2, 0, 3),
            (3, 0, 3),
            (4, 0, 5),
            (4, 1, 5),
            (5, 1, 5),
        ];
        for (i, (sql, expect)) in steps.iter().zip(pinned).enumerate() {
            let result = cdw.execute(sql);
            assert_eq!(result.is_ok(), i < 5, "{sql}: {result:?}");
            let s = cdw.plan_stats();
            let got = (s.index_seeks, s.full_scans, s.index_maintains);
            assert_eq!(got, expect, "{sql}");
        }
    }
}
