//! Row storage, the primary-key index, catalog, and transaction undo log.

use std::borrow::{Borrow, Cow};
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::error::{DbError, DbResult};
use crate::schema::{Column, TableSchema};
use crate::value::{DataType, Value};

/// Opaque row identifier, unique within a table for its lifetime.
pub type RowId = u64;

/// The hasher of the key index and the parse cache: one multiply-rotate
/// step per 8-byte word (the FxHash scheme) and no per-map seed, far
/// cheaper than the standard SipHash on short keys and statement texts.
/// Neither needs defending from chosen collisions: an index hit is
/// confirmed against its row, and the parse cache is bounded.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            let mut word = [0; 8];
            word.copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word.iter_mut().zip(rest).for_each(|(w, b)| *w = *b);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`FoldHasher`]s.
pub(crate) type FoldState = BuildHasherDefault<FoldHasher>;

/// Hash of a key value, equal for any two values [`Value::sql_eq`] calls
/// equal: INTEGER / BIGINT / TIMESTAMP are one numeric family hashed by
/// their `i64`, VARCHAR and BLOB by their bytes. NULL equals nothing and
/// has no hash. Unequal values may share a hash (a VARCHAR and a BLOB of
/// the same bytes, or a plain collision), so every index hit is confirmed
/// against the stored row.
pub(crate) fn key_hash(v: &Value) -> Option<u64> {
    let bytes: &[u8] = match v {
        Value::Null => return None,
        Value::Integer(n) | Value::BigInt(n) | Value::Timestamp(n) => return Some(*n as u64),
        Value::Boolean(b) => return Some(u64::from(*b)),
        Value::Varchar(s) => s.as_bytes(),
        Value::Blob(b) => b,
    };
    let mut h = FoldHasher::default();
    bytes.hash(&mut h);
    Some(h.finish())
}

/// [`key_hash`] of `probe.coerce_to(ty)`, without building it: `None`
/// when the probe is NULL or does not coerce to `ty`.
pub(crate) fn probe_hash(probe: &Value, ty: DataType) -> Option<u64> {
    key_hash(probe).filter(|_| probe.conforms_to(ty))
}

/// What the value hashed `h` in slot `slot` of a `width`-column key adds
/// to the key's index hash: the index hash is the wrapping sum over the
/// slots, so it builds in any order and allocates nothing. A one-column
/// key hashes as its value.
pub(crate) fn key_part(width: usize, slot: usize, h: u64) -> u64 {
    if width == 1 {
        return h;
    }
    let x =
        (h ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 31)
}

/// The index hash of `row`'s key: `None` on an unkeyed table or a NULL
/// key column.
fn row_hash(key: &[usize], row: &[Value]) -> Option<u64> {
    if key.is_empty() {
        return None;
    }
    key.iter().enumerate().try_fold(0u64, |h, (slot, &pos)| {
        let part = key_part(key.len(), slot, key_hash(row.get(pos)?)?);
        Some(h.wrapping_add(part))
    })
}

/// A heap table: schema plus rows keyed by [`RowId`], and — when the
/// schema declares a `PRIMARY KEY` of one column or several — an index
/// from key to row that every mutation maintains.
#[derive(Clone, Debug)]
pub struct Table {
    schema: TableSchema,
    rows: BTreeMap<RowId, Vec<Value>>,
    next_row_id: RowId,
    /// `row_hash(row)` → the lowest id of the rows under that hash, for
    /// every row of a keyed table. It holds no second copy of a VARCHAR /
    /// BLOB key.
    index: HashMap<u64, RowId, FoldState>,
    /// `(hash, row id)` of every other row under an indexed hash (a
    /// collision, or a duplicate key resurrected by another session's
    /// rollback), so a hash's rows come back in row-id order, as a scan
    /// would return them.
    spill: BTreeSet<(u64, RowId)>,
    /// Rows handed out by [`Table::candidates`] or compared by a key
    /// lookup (diagnostic; see [`Table::rows_examined`]).
    examined: Cell<u64>,
    /// The catalog write that last handed this table out for change
    /// ([`Table::stamp`]).
    stamp: u64,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            rows: BTreeMap::new(),
            next_row_id: 1,
            index: HashMap::default(),
            spill: BTreeSet::new(),
            examined: Cell::new(0),
            stamp: 0,
        }
    }

    /// The table's write stamp: moved by every mutable access through its
    /// [`Catalog`] (INSERT, UPDATE, DELETE, a rollback's undo, creation),
    /// never by a read, and drawn from one catalog-wide counter, so no two
    /// states of any table in the catalog — a dropped and re-created one
    /// included — share a stamp. Equal stamps mean equal contents.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates rows in insertion (row id) order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Vec<Value>)> {
        self.rows.iter().map(|(id, r)| (*id, r))
    }

    /// Fetches one row.
    pub fn get(&self, id: RowId) -> Option<&Vec<Value>> {
        self.rows.get(&id)
    }

    /// How many rows this table has handed to a statement or compared in
    /// a key lookup since it was created: the deterministic cost of the
    /// statements run against it (a scan counts every row, an index hit
    /// one).
    pub fn rows_examined(&self) -> u64 {
        self.examined.get()
    }

    /// The rows a predicate has to look at, in row-id order: with `key`
    /// (the index hash of one key, on a keyed table) only the rows the
    /// index holds under it, otherwise every row. A superset of the rows
    /// holding that key — the caller still confirms each.
    pub(crate) fn candidates(
        &self,
        key: Option<u64>,
    ) -> impl Iterator<Item = (RowId, &Vec<Value>)> + '_ {
        // Exactly one of the two sources is present; chaining them keeps
        // this one concrete iterator type, with nothing boxed per call.
        let pinned = key.filter(|_| !self.schema.key().is_empty()).map(|h| {
            let first = self.index.get(&h).copied();
            first.into_iter().chain(self.spilled(h).map(|&(_, id)| id))
        });
        let scan = pinned.is_none().then(|| self.iter());
        let pinned = pinned
            .into_iter()
            .flatten()
            .filter_map(|id| Some((id, self.rows.get(&id)?)));
        pinned
            .chain(scan.into_iter().flatten())
            .inspect(|_| self.examined.set(self.examined.get() + 1))
    }

    /// The index entry of `row` stored under `id`, if this table is keyed.
    fn index_entry(&self, id: RowId, row: &[Value]) -> Option<(u64, RowId)> {
        Some((row_hash(self.schema.key(), row)?, id))
    }

    /// The one place the index changes: a row's image went from the one
    /// behind `stale` to the one behind `entry` (`None`: no such image,
    /// or an unkeyed table).
    fn reindex(&mut self, stale: Option<(u64, RowId)>, entry: Option<(u64, RowId)>) {
        if stale == entry {
            return;
        }
        if let Some((h, id)) = stale {
            if self.index.get(&h) == Some(&id) {
                let next = self.spilled(h).next().copied();
                match next {
                    Some(next) => {
                        self.spill.remove(&next);
                        self.index.insert(h, next.1);
                    }
                    None => {
                        self.index.remove(&h);
                    }
                }
            } else {
                self.spill.remove(&(h, id));
            }
        }
        if let Some((h, id)) = entry {
            match self.index.entry(h) {
                Entry::Vacant(slot) => {
                    slot.insert(id);
                }
                Entry::Occupied(mut slot) => {
                    let later = if id < *slot.get() {
                        slot.insert(id)
                    } else {
                        id
                    };
                    self.spill.insert((h, later));
                }
            }
        }
    }

    /// The spilled index entries under hash `h`, in row-id order.
    fn spilled(&self, h: u64) -> impl Iterator<Item = &(u64, RowId)> + '_ {
        self.spill.range((h, RowId::MIN)..=(h, RowId::MAX))
    }

    /// The rows other than `except` that hold the key whose column at
    /// position `pos` is `value(pos)`, found through the index without
    /// building a row: none on an unkeyed table, or when a key value is
    /// missing, NULL or of a type its column cannot store.
    pub(crate) fn holders<'a, V: Borrow<Value>>(
        &'a self,
        value: impl Fn(usize) -> Option<V> + 'a,
        except: Option<RowId>,
    ) -> impl Iterator<Item = (RowId, &'a Vec<Value>)> + 'a {
        let key = self.schema.key();
        let part = |(slot, &pos): (usize, &usize)| {
            let dtype = self.schema.columns().get(pos)?.dtype();
            let h = probe_hash(value(pos)?.borrow(), dtype)?;
            Some(key_part(key.len(), slot, h))
        };
        let hash = (key.iter().enumerate())
            .try_fold(0u64, |h, k| Some(h.wrapping_add(part(k)?)))
            .filter(|_| !key.is_empty());
        let same = move |pos: usize, held: &Value| {
            value(pos).is_some_and(|v| held.sql_eq(v.borrow()) == Some(true))
        };
        (hash.into_iter())
            .flat_map(|h| self.candidates(Some(h)))
            .filter(move |(id, held)| {
                Some(*id) != except
                    && (key.iter()).all(|&pos| held.get(pos).is_some_and(|v| same(pos, v)))
            })
    }

    /// Rejects `row` if a row other than `except` already holds its key.
    fn check_unique(&self, row: &[Value], except: Option<RowId>) -> DbResult<()> {
        if self.holders(|pos| row.get(pos), except).next().is_none() {
            return Ok(());
        }
        let key = self.schema.key();
        let held: Vec<String> = (key.iter())
            .filter_map(|&k| {
                Some(format!(
                    "{} = {}",
                    self.schema.columns().get(k)?.name(),
                    row.get(k)?
                ))
            })
            .collect();
        Err(DbError::DuplicateKey(format!(
            "{}.{}",
            self.schema.name(),
            held.join(", ")
        )))
    }

    /// Validates the row against the schema (types, NOT NULL, primary-key
    /// uniqueness) and inserts it, returning its new [`RowId`].
    ///
    /// # Errors
    ///
    /// [`DbError::Constraint`], [`DbError::Type`], or
    /// [`DbError::DuplicateKey`].
    pub fn insert(&mut self, row: Vec<Value>) -> DbResult<RowId> {
        let row = self.schema.validate_row(row)?;
        self.check_unique(&row, None)?;
        Ok(self.push(row))
    }

    /// Stores a validated row whose key no row holds, under a new id.
    pub(crate) fn push(&mut self, row: Vec<Value>) -> RowId {
        let id = self.next_row_id;
        self.next_row_id += 1;
        self.reindex(None, self.index_entry(id, &row));
        self.rows.insert(id, row);
        id
    }

    /// Writes each column of the row at `id` outside the key in place,
    /// from `value(position)`, keeping its id, its key and with them its
    /// index entry; returns the previous image when `keep_old` asks for
    /// it (an undo log). Every value is checked as
    /// [`TableSchema::validate_row`] would before the first is written.
    ///
    /// # Errors
    ///
    /// The first error of `value` or of a check, with the row untouched;
    /// [`DbError::Internal`] if `id` is dead.
    pub(crate) fn write_in_place<'v>(
        &mut self,
        id: RowId,
        keep_old: bool,
        value: impl Fn(usize) -> DbResult<Cow<'v, Value>>,
    ) -> DbResult<Option<Vec<Value>>> {
        let schema = &self.schema;
        let key = schema.key();
        let columns =
            || (schema.columns().iter().enumerate()).filter(|(pos, _)| !key.contains(pos));
        for (pos, col) in columns() {
            schema.check_storable(col, &*value(pos)?)?;
        }
        let Some(held) = self.rows.get_mut(&id) else {
            return Err(DbError::Internal(format!(
                "write into dead row {id} in {}",
                schema.name()
            )));
        };
        let old = keep_old.then(|| held.clone());
        for (pos, col) in columns() {
            if let Some(held) = held.get_mut(pos) {
                *held = value(pos)?.into_owned().coerce_to(col.dtype())?;
            }
        }
        Ok(old)
    }

    /// Re-inserts a row under a previously used id (for undo), replacing
    /// whatever image the id holds now.
    pub(crate) fn restore(&mut self, id: RowId, row: Vec<Value>) {
        let entry = self.index_entry(id, &row);
        let replaced = self.rows.insert(id, row);
        let stale = replaced.and_then(|old| self.index_entry(id, &old));
        self.reindex(stale, entry);
        if id >= self.next_row_id {
            self.next_row_id = id + 1;
        }
    }

    /// Replaces the row at `id`, returning the previous image.
    ///
    /// # Errors
    ///
    /// [`DbError::Internal`] if `id` is dead (the table is left
    /// untouched); schema errors as for insert.
    pub fn update(&mut self, id: RowId, row: Vec<Value>) -> DbResult<Vec<Value>> {
        let row = self.schema.validate_row(row)?;
        self.check_unique(&row, Some(id))?;
        let entry = self.index_entry(id, &row);
        let Some(slot) = self.rows.get_mut(&id) else {
            return Err(DbError::Internal(format!(
                "update of dead row {id} in {}",
                self.schema.name()
            )));
        };
        let old = std::mem::replace(slot, row);
        self.reindex(self.index_entry(id, &old), entry);
        Ok(old)
    }

    /// Deletes the row at `id`, returning its final image.
    ///
    /// # Errors
    ///
    /// [`DbError::Internal`] if `id` is dead.
    pub fn delete(&mut self, id: RowId) -> DbResult<Vec<Value>> {
        let old = self.rows.remove(&id).ok_or_else(|| {
            DbError::Internal(format!("delete of dead row {id} in {}", self.schema.name()))
        })?;
        self.reindex(self.index_entry(id, &old), None);
        Ok(old)
    }

    /// Returns `true` if any row has `value` in column `col` (through
    /// the index when `col` is the primary key).
    fn contains_value(&self, col: usize, value: &Value) -> bool {
        let key = key_hash(value).filter(|_| self.schema.key() == [col]);
        self.candidates(key)
            .any(|(_, r)| r.get(col).and_then(|v| v.sql_eq(value)) == Some(true))
    }
}

/// A single reversible mutation, recorded while a transaction is open.
#[derive(Clone, Debug)]
pub enum UndoRecord {
    /// A row was inserted; undo deletes it.
    Inserted {
        /// Table that received the row.
        table: String,
        /// Id of the inserted row.
        id: RowId,
    },
    /// A row was updated; undo restores the old image.
    Updated {
        /// Table containing the row.
        table: String,
        /// Id of the updated row.
        id: RowId,
        /// Pre-update image.
        old: Vec<Value>,
    },
    /// A row was deleted; undo re-inserts the old image.
    Deleted {
        /// Table the row was deleted from.
        table: String,
        /// Id of the deleted row.
        id: RowId,
        /// Pre-delete image.
        old: Vec<Value>,
    },
}

/// The set of tables in one database.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    /// The last write stamp handed out ([`Table::stamp`]).
    writes: u64,
    /// The (lowercase) names of the tables a column `REFERENCES`.
    referenced: BTreeSet<String>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// The catalog's (lowercase) key for `name`, borrowed when `name`
    /// already is one.
    fn key(name: &str) -> Cow<'_, str> {
        if name.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(name.to_ascii_lowercase())
        } else {
            Cow::Borrowed(name)
        }
    }

    /// Creates a table.
    ///
    /// # Errors
    ///
    /// [`DbError::TableExists`] when the name is taken.
    pub fn create_table(&mut self, schema: TableSchema) -> DbResult<()> {
        let key = Self::key(schema.name()).into_owned();
        if self.tables.contains_key(&key) {
            return Err(DbError::TableExists(schema.name().to_string()));
        }
        self.writes += 1;
        let targets = schema
            .columns()
            .iter()
            .filter_map(Column::references_target);
        (self.referenced).extend(targets.map(|(rt, _)| Self::key(rt).into_owned()));
        let table = Table {
            stamp: self.writes,
            ..Table::new(schema)
        };
        self.tables.insert(key, table);
        Ok(())
    }

    /// Immutable access to a table.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] when absent.
    pub fn table(&self, name: &str) -> DbResult<&Table> {
        self.tables
            .get(Self::key(name).as_ref())
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Mutable access to a table, which moves its [`Table::stamp`].
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] when absent.
    pub fn table_mut(&mut self, name: &str) -> DbResult<&mut Table> {
        let table = self
            .tables
            .get_mut(Self::key(name).as_ref())
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))?;
        self.writes += 1;
        table.stamp = self.writes;
        Ok(table)
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(Self::key(name).as_ref())
    }

    /// Sorted list of table names (canonical lowercase form).
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Rows examined across all tables ([`Table::rows_examined`]).
    pub fn rows_examined(&self) -> u64 {
        self.tables.values().map(Table::rows_examined).sum()
    }

    /// Applies one undo record, reversing a mutation.
    pub fn apply_undo(&mut self, rec: UndoRecord) {
        match rec {
            UndoRecord::Inserted { table, id } => {
                if let Ok(t) = self.table_mut(&table) {
                    let _ = t.delete(id);
                }
            }
            UndoRecord::Updated { table, id, old } => {
                if let Ok(t) = self.table_mut(&table) {
                    t.restore(id, old);
                }
            }
            UndoRecord::Deleted { table, id, old } => {
                if let Ok(t) = self.table_mut(&table) {
                    t.restore(id, old);
                }
            }
        }
    }

    /// Checks that `value` exists in `table.column` — used to enforce
    /// `REFERENCES` constraints on insert/update.
    ///
    /// # Errors
    ///
    /// [`DbError::ForeignKey`] when the referenced row is missing, or the
    /// referenced table/column does not exist.
    pub fn check_reference(&self, table: &str, column: &str, value: &Value) -> DbResult<()> {
        if value.is_null() {
            return Ok(());
        }
        let t = self
            .table(table)
            .map_err(|_| DbError::ForeignKey(format!("referenced table {table} missing")))?;
        let idx = t.schema().col_index(column).map_err(|_| {
            DbError::ForeignKey(format!("referenced column {table}.{column} missing"))
        })?;
        if t.contains_value(idx, value) {
            Ok(())
        } else {
            Err(DbError::ForeignKey(format!(
                "no row with {table}.{column} = {value}"
            )))
        }
    }

    /// Whether a column of any table `REFERENCES` a column of `table`.
    pub fn is_referenced(&self, table: &str) -> bool {
        self.referenced.contains(Self::key(table).as_ref())
    }

    /// Checks that no row in any table references `value` in
    /// `table.column` — used to restrict deletes from parent tables.
    ///
    /// # Errors
    ///
    /// [`DbError::ForeignKey`] when a referencing row exists.
    pub fn check_no_referents(&self, table: &str, column: &str, value: &Value) -> DbResult<()> {
        for t in self.tables.values() {
            for (ci, c) in t.schema().columns().iter().enumerate() {
                if let Some((rt, rc)) = c.references_target() {
                    if rt.eq_ignore_ascii_case(table)
                        && rc.eq_ignore_ascii_case(column)
                        && t.contains_value(ci, value)
                    {
                        return Err(DbError::ForeignKey(format!(
                            "{}.{} still references {table}.{column} = {value}",
                            t.schema().name(),
                            c.name()
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn catalog_with_fk() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            TableSchema::new(
                "drivers",
                vec![
                    Column::new("driver_id", DataType::Integer).primary_key(),
                    Column::new("api_name", DataType::Varchar).not_null(),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.create_table(
            TableSchema::new(
                "driver_permission",
                vec![
                    Column::new("user", DataType::Varchar),
                    Column::new("driver_id", DataType::Integer)
                        .not_null()
                        .references("drivers", "driver_id"),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    #[test]
    fn insert_get_delete() {
        let mut t = Table::new(
            TableSchema::new("t", vec![Column::new("a", DataType::Integer).primary_key()]).unwrap(),
        );
        let id = t.insert(vec![Value::Integer(1)]).unwrap();
        assert_eq!(t.get(id).unwrap()[0], Value::Integer(1));
        assert_eq!(t.len(), 1);
        let old = t.delete(id).unwrap();
        assert_eq!(old[0], Value::Integer(1));
        assert!(t.is_empty());
        assert!(t.delete(id).is_err());
    }

    #[test]
    fn primary_key_uniqueness() {
        let mut t = Table::new(
            TableSchema::new("t", vec![Column::new("a", DataType::Integer).primary_key()]).unwrap(),
        );
        t.insert(vec![Value::Integer(1)]).unwrap();
        assert!(matches!(
            t.insert(vec![Value::Integer(1)]),
            Err(DbError::DuplicateKey(_))
        ));
        // Updating the only row to its own key is fine.
        let id = t.iter().next().unwrap().0;
        t.update(id, vec![Value::Integer(1)]).unwrap();
        // But colliding with another row is not.
        t.insert(vec![Value::Integer(2)]).unwrap();
        assert!(t.update(id, vec![Value::Integer(2)]).is_err());
    }

    #[test]
    fn update_of_a_dead_row_leaves_the_table_untouched() {
        let mut t = Table::new(
            TableSchema::new("t", vec![Column::new("a", DataType::Integer).primary_key()]).unwrap(),
        );
        let id = t.insert(vec![Value::Integer(1)]).unwrap();
        t.delete(id).unwrap();
        assert!(matches!(
            t.update(id, vec![Value::Integer(1)]),
            Err(DbError::Internal(_))
        ));
        // No phantom row, and nothing holds key 1.
        assert!(t.is_empty());
        assert!(!t.contains_value(0, &Value::Integer(1)));
        t.insert(vec![Value::Integer(1)]).unwrap();
        assert_eq!(t.len(), 1);
    }

    /// Row ids the index offers for `key`.
    fn holders(t: &Table, key: &Value) -> Vec<RowId> {
        t.candidates(key_hash(key)).map(|(id, _)| id).collect()
    }

    #[test]
    fn index_follows_insert_update_delete_and_restore() {
        let mut t = Table::new(
            TableSchema::new(
                "t",
                vec![
                    Column::new("a", DataType::Integer).primary_key(),
                    Column::new("b", DataType::Varchar),
                ],
            )
            .unwrap(),
        );
        let row = |a: i64, b: &str| vec![Value::Integer(a), Value::str(b)];
        let one = t.insert(row(1, "x")).unwrap();
        let two = t.insert(row(2, "y")).unwrap();
        // INTEGER, BIGINT and TIMESTAMP probes are one key family.
        for probe in [Value::Integer(1), Value::BigInt(1), Value::Timestamp(1)] {
            assert_eq!(holders(&t, &probe), vec![one]);
            assert!(t.contains_value(0, &probe));
        }
        // A NULL probe pins nothing: every row is a candidate, none equal.
        assert_eq!(holders(&t, &Value::Null), vec![one, two]);
        assert!(!t.contains_value(0, &Value::Null));

        // A non-key update keeps the entry, a key move moves it.
        t.update(one, row(1, "z")).unwrap();
        assert_eq!(holders(&t, &Value::Integer(1)), vec![one]);
        let before_move = t.update(one, row(7, "z")).unwrap();
        assert!(holders(&t, &Value::Integer(1)).is_empty());
        assert_eq!(holders(&t, &Value::Integer(7)), vec![one]);
        // Key 1 is free again, key 2 is still taken.
        assert!(matches!(
            t.update(one, row(2, "z")),
            Err(DbError::DuplicateKey(_))
        ));
        assert_eq!(holders(&t, &Value::Integer(7)), vec![one]);

        // Undo of the move, then of a delete.
        t.restore(one, before_move);
        assert_eq!(holders(&t, &Value::Integer(1)), vec![one]);
        assert!(holders(&t, &Value::Integer(7)).is_empty());
        let gone = t.delete(two).unwrap();
        assert!(holders(&t, &Value::Integer(2)).is_empty());
        t.restore(two, gone);
        assert_eq!(holders(&t, &Value::Integer(2)), vec![two]);
        assert!(matches!(
            t.insert(row(2, "again")),
            Err(DbError::DuplicateKey(_))
        ));
    }

    #[test]
    fn rows_under_one_key_come_back_in_row_id_order() {
        let mut t = Table::new(
            TableSchema::new(
                "t",
                vec![
                    Column::new("a", DataType::Integer).primary_key(),
                    Column::new("b", DataType::Varchar),
                ],
            )
            .unwrap(),
        );
        let row = |a: i64, b: &str| vec![Value::Integer(a), Value::str(b)];
        let one = t.insert(row(1, "x")).unwrap();
        let two = t.insert(row(2, "y")).unwrap();
        // A rollback can put back a key another row took meanwhile: both
        // rows hold key 2, the lower id first.
        t.restore(one, row(2, "back"));
        assert_eq!(holders(&t, &Value::Integer(2)), vec![one, two]);
        assert!(holders(&t, &Value::Integer(1)).is_empty());
        t.delete(one).unwrap();
        assert_eq!(holders(&t, &Value::Integer(2)), vec![two]);
        t.restore(one, row(2, "again"));
        let three = t.push(row(2, "third"));
        assert_eq!(holders(&t, &Value::Integer(2)), vec![one, two, three]);
        t.update(two, row(3, "y")).unwrap();
        assert_eq!(holders(&t, &Value::Integer(2)), vec![one, three]);
        assert_eq!(holders(&t, &Value::Integer(3)), vec![two]);
        t.delete(one).unwrap();
        assert_eq!(holders(&t, &Value::Integer(2)), vec![three]);
    }

    #[test]
    fn every_key_type_is_indexed() {
        let keys = [
            (DataType::BigInt, Value::BigInt(-5), Value::BigInt(6)),
            (DataType::Timestamp, Value::Timestamp(5), Value::Integer(6)),
            (DataType::Varchar, Value::str("a"), Value::str("b")),
            (
                DataType::Blob,
                Value::from(vec![1u8, 2]),
                Value::from(vec![1u8]),
            ),
            (
                DataType::Boolean,
                Value::Boolean(true),
                Value::Boolean(false),
            ),
        ];
        for (dtype, held, free) in keys {
            let mut t = Table::new(
                TableSchema::new("t", vec![Column::new("k", dtype).primary_key()]).unwrap(),
            );
            let id = t.insert(vec![held.clone()]).unwrap();
            for _ in 0..20 {
                t.insert(vec![free.clone()]).unwrap();
                let last = t.iter().last().unwrap().0;
                t.delete(last).unwrap();
            }
            let examined = t.rows_examined();
            assert_eq!(holders(&t, &held), vec![id], "{dtype}");
            assert!(holders(&t, &free).is_empty(), "{dtype}");
            assert!(matches!(
                t.insert(vec![held.clone()]),
                Err(DbError::DuplicateKey(_))
            ));
            assert_eq!(
                t.rows_examined() - examined,
                2,
                "{dtype}: two hits, no scan"
            );
        }
    }

    #[test]
    fn undo_reverses_mutations() {
        let mut c = Catalog::new();
        c.create_table(TableSchema::new("t", vec![Column::new("a", DataType::Integer)]).unwrap())
            .unwrap();
        let id = c
            .table_mut("t")
            .unwrap()
            .insert(vec![Value::Integer(1)])
            .unwrap();
        let old = c
            .table_mut("t")
            .unwrap()
            .update(id, vec![Value::Integer(2)])
            .unwrap();
        c.apply_undo(UndoRecord::Updated {
            table: "t".into(),
            id,
            old,
        });
        assert_eq!(c.table("t").unwrap().get(id).unwrap()[0], Value::Integer(1));
        let old = c.table_mut("t").unwrap().delete(id).unwrap();
        c.apply_undo(UndoRecord::Deleted {
            table: "t".into(),
            id,
            old,
        });
        assert_eq!(c.table("t").unwrap().len(), 1);
        c.apply_undo(UndoRecord::Inserted {
            table: "t".into(),
            id,
        });
        assert!(c.table("t").unwrap().is_empty());
    }

    #[test]
    fn foreign_key_checks() {
        let mut c = catalog_with_fk();
        c.table_mut("drivers")
            .unwrap()
            .insert(vec![Value::Integer(1), Value::str("JDBC")])
            .unwrap();
        // Insert referencing existing driver: ok.
        c.check_reference("drivers", "driver_id", &Value::Integer(1))
            .unwrap();
        // Missing driver: rejected.
        assert!(c
            .check_reference("drivers", "driver_id", &Value::Integer(9))
            .is_err());
        // NULL reference: allowed.
        c.check_reference("drivers", "driver_id", &Value::Null)
            .unwrap();

        // With a referencing permission row, parent delete is restricted.
        c.table_mut("driver_permission")
            .unwrap()
            .insert(vec![Value::str("bob"), Value::Integer(1)])
            .unwrap();
        assert!(c
            .check_no_referents("drivers", "driver_id", &Value::Integer(1))
            .is_err());
        assert!(c
            .check_no_referents("drivers", "driver_id", &Value::Integer(2))
            .is_ok());
    }

    #[test]
    fn catalog_names_are_case_insensitive() {
        let c = catalog_with_fk();
        assert!(c.has_table("DRIVERS"));
        assert!(c.table("Drivers").is_ok());
    }

    #[test]
    fn restore_bumps_next_row_id() {
        let mut t =
            Table::new(TableSchema::new("t", vec![Column::new("a", DataType::Integer)]).unwrap());
        t.restore(10, vec![Value::Integer(1)]);
        let id = t.insert(vec![Value::Integer(2)]).unwrap();
        assert!(id > 10);
    }
}
