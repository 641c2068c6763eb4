//! Database snapshots: a compact, self-describing binary format for
//! saving and restoring a whole [`Database`] — schemas, foreign keys,
//! every row slot (including tombstones, so [`crate::TupleId`]s survive a
//! round trip), with the hash and inverted indexes rebuilt on load.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "NEBREL1\0"
//! u32 table_count
//! per table:
//!   string name
//!   u32 column_count
//!   per column: string name, u8 type, u8 indexed, u8 searchable
//!   u8 has_pk (+ u32 pk column)
//!   u64 slot_count
//!   per slot: u8 live, per column: tagged value
//! u32 fk_count; per fk: u32 from_table, u32 from_column, u32 to_table
//! ```
//!
//! Value tags: 0 = Null, 1 = Int(i64), 2 = Float(f64 bits), 3 = Text.

use crate::catalog::ForeignKey;
use crate::database::Database;
use crate::schema::{ColumnId, TableId, TableSchema};
use crate::value::{DataType, Value};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

const MAGIC: &[u8; 8] = b"NEBREL1\0";

/// Errors from snapshot decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the expected magic.
    BadMagic,
    /// The buffer ended before the structure was complete.
    Truncated(&'static str),
    /// An enum tag was out of range.
    BadTag(&'static str, u8),
    /// A string was not valid UTF-8.
    BadString,
    /// The decoded structure violates an invariant.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a relstore snapshot (bad magic)"),
            SnapshotError::Truncated(what) => write!(f, "snapshot truncated while reading {what}"),
            SnapshotError::BadTag(what, tag) => write!(f, "invalid {what} tag {tag}"),
            SnapshotError::BadString => write!(f, "invalid UTF-8 string in snapshot"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_string(buf: &mut Bytes) -> Result<String, SnapshotError> {
    if buf.remaining() < 4 {
        return Err(SnapshotError::Truncated("string length"));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(SnapshotError::Truncated("string body"));
    }
    let bytes = buf.copy_to_bytes(len);
    String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::BadString)
}

pub(crate) fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Int(i) => {
            buf.put_u8(1);
            buf.put_i64_le(*i);
        }
        Value::Float(x) => {
            buf.put_u8(2);
            buf.put_u64_le(x.to_bits());
        }
        Value::Text(s) => {
            buf.put_u8(3);
            put_string(buf, s);
        }
    }
}

pub(crate) fn get_value(buf: &mut Bytes) -> Result<Value, SnapshotError> {
    if buf.remaining() < 1 {
        return Err(SnapshotError::Truncated("value tag"));
    }
    match buf.get_u8() {
        0 => Ok(Value::Null),
        1 => {
            if buf.remaining() < 8 {
                return Err(SnapshotError::Truncated("int value"));
            }
            Ok(Value::Int(buf.get_i64_le()))
        }
        2 => {
            if buf.remaining() < 8 {
                return Err(SnapshotError::Truncated("float value"));
            }
            Ok(Value::Float(f64::from_bits(buf.get_u64_le())))
        }
        3 => Ok(Value::Text(get_string(buf)?)),
        tag => Err(SnapshotError::BadTag("value", tag)),
    }
}

fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Null => 3,
    }
}

fn tag_type(tag: u8) -> Result<DataType, SnapshotError> {
    match tag {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Float),
        2 => Ok(DataType::Text),
        3 => Ok(DataType::Null),
        t => Err(SnapshotError::BadTag("data type", t)),
    }
}

/// A 64-bit FNV-1a fingerprint of the canonical snapshot encoding.
///
/// Two databases with identical logical content fingerprint identically
/// (the encoding is canonical), so a caller can check cheaply that two
/// copies of a database have not diverged without comparing the
/// snapshots themselves.
pub fn fingerprint(db: &Database) -> u64 {
    let bytes = save(db);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes.as_ref() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialize a database to bytes.
pub fn save(db: &Database) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    let tables: Vec<(TableId, &str)> = db.catalog().iter().collect();
    buf.put_u32_le(tables.len() as u32);
    for (tid, name) in &tables {
        let table = db.table(*tid).expect("catalog and tables agree");
        let schema = table.schema();
        put_string(&mut buf, name);
        buf.put_u32_le(schema.arity() as u32);
        for (_, def) in schema.iter_columns() {
            put_string(&mut buf, &def.name);
            buf.put_u8(type_tag(def.data_type));
            buf.put_u8(def.indexed as u8);
            buf.put_u8(def.searchable as u8);
        }
        match schema.primary_key {
            Some(pk) => {
                buf.put_u8(1);
                buf.put_u32_le(pk.0);
            }
            None => buf.put_u8(0),
        }
        let slots: Vec<(bool, Vec<Value>)> = table.raw_slots().collect();
        buf.put_u64_le(slots.len() as u64);
        for (live, values) in slots {
            buf.put_u8(live as u8);
            for v in &values {
                put_value(&mut buf, v);
            }
        }
    }
    let fks = db.catalog().foreign_keys();
    buf.put_u32_le(fks.len() as u32);
    for fk in fks {
        buf.put_u32_le(fk.from_table.0);
        buf.put_u32_le(fk.from_column.0);
        buf.put_u32_le(fk.to_table.0);
    }
    buf.freeze()
}

/// Restore a database from bytes produced by [`save`]. Tuple ids are
/// preserved exactly; all indexes (hash + inverted) are rebuilt.
pub fn load(bytes: &[u8]) -> Result<Database, SnapshotError> {
    load_with(bytes, None)
}

/// Restore a database from bytes produced by [`save`], routing row
/// payloads and posting blocks through backends opened by `factory`
/// (`None` keeps everything in RAM, exactly like [`load`]). The logical
/// content is identical either way — [`fingerprint`] cannot tell the
/// backends apart.
pub fn load_with(
    bytes: &[u8],
    factory: Option<std::sync::Arc<dyn crate::storage::StorageFactory>>,
) -> Result<Database, SnapshotError> {
    let mut buf = Bytes::copy_from_slice(bytes);
    if buf.remaining() < MAGIC.len() || &buf.copy_to_bytes(MAGIC.len())[..] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut db = match factory {
        Some(factory) => Database::with_storage(factory),
        None => Database::new(),
    };
    if buf.remaining() < 4 {
        return Err(SnapshotError::Truncated("table count"));
    }
    let table_count = buf.get_u32_le();
    // Every table needs at least a name length, a column count, a pk
    // flag, and a slot count — a hostile count fails here instead of
    // spinning through the loop.
    if table_count as usize > buf.remaining() / 17 {
        return Err(SnapshotError::Corrupt(format!("implausible table count {table_count}")));
    }
    for _ in 0..table_count {
        let name = get_string(&mut buf)?;
        if buf.remaining() < 4 {
            return Err(SnapshotError::Truncated("column count"));
        }
        let column_count = buf.get_u32_le();
        // Each column costs at least a name length plus three flag bytes;
        // never pre-allocate from an unvalidated length field.
        if column_count as usize > buf.remaining() / 7 {
            return Err(SnapshotError::Corrupt(format!("implausible column count {column_count}")));
        }
        let mut builder = TableSchema::builder(&name);
        let mut column_names = Vec::with_capacity(column_count as usize);
        for _ in 0..column_count {
            let cname = get_string(&mut buf)?;
            if buf.remaining() < 3 {
                return Err(SnapshotError::Truncated("column flags"));
            }
            let ty = tag_type(buf.get_u8())?;
            let indexed = buf.get_u8() != 0;
            let searchable = buf.get_u8() != 0;
            builder = if indexed {
                builder.indexed_column(&cname, ty)
            } else if !searchable {
                builder.unsearchable_column(&cname, ty)
            } else {
                builder.column(&cname, ty)
            };
            column_names.push(cname);
        }
        if buf.remaining() < 1 {
            return Err(SnapshotError::Truncated("pk flag"));
        }
        if buf.get_u8() != 0 {
            if buf.remaining() < 4 {
                return Err(SnapshotError::Truncated("pk column"));
            }
            let pk = buf.get_u32_le() as usize;
            let pk_name = column_names
                .get(pk)
                .ok_or_else(|| SnapshotError::Corrupt(format!("pk column {pk} out of range")))?;
            builder = builder.primary_key(pk_name);
        }
        let schema = builder.build().map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        let arity = schema.arity();
        let tid = db.create_table(schema).map_err(|e| SnapshotError::Corrupt(e.to_string()))?;

        if buf.remaining() < 8 {
            return Err(SnapshotError::Truncated("slot count"));
        }
        let slot_count = buf.get_u64_le();
        // Each slot costs at least its liveness byte plus one value tag
        // per column.
        if slot_count > (buf.remaining() / (1 + arity.max(1))) as u64 {
            return Err(SnapshotError::Corrupt(format!("implausible slot count {slot_count}")));
        }
        for _ in 0..slot_count {
            if buf.remaining() < 1 {
                return Err(SnapshotError::Truncated("slot liveness"));
            }
            let live = buf.get_u8() != 0;
            let mut values = Vec::with_capacity(arity);
            for _ in 0..arity {
                values.push(get_value(&mut buf)?);
            }
            db.restore_slot(tid, live, values)
                .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        }
    }
    if buf.remaining() < 4 {
        return Err(SnapshotError::Truncated("fk count"));
    }
    let fk_count = buf.get_u32_le();
    if fk_count as usize > buf.remaining() / 12 {
        return Err(SnapshotError::Corrupt(format!("implausible foreign-key count {fk_count}")));
    }
    for _ in 0..fk_count {
        if buf.remaining() < 12 {
            return Err(SnapshotError::Truncated("foreign key"));
        }
        let fk = ForeignKey {
            from_table: TableId(buf.get_u32_le()),
            from_column: ColumnId(buf.get_u32_le()),
            to_table: TableId(buf.get_u32_le()),
        };
        db.restore_foreign_key(fk).map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("gene")
                .column("gid", DataType::Text)
                .column("name", DataType::Text)
                .indexed_column("family", DataType::Text)
                .column("length", DataType::Int)
                .unsearchable_column("seq", DataType::Text)
                .primary_key("gid")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("protein")
                .column("pid", DataType::Text)
                .column("gene_id", DataType::Text)
                .column("mass", DataType::Float)
                .primary_key("pid")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_foreign_key("protein", "gene_id", "gene").unwrap();
        for (gid, name, fam, len) in [
            ("JW0013", "grpC", "F1", 1130i64),
            ("JW0014", "groP", "F6", 1916),
            ("JW0019", "yaaB", "F3", 905),
        ] {
            db.insert(
                "gene",
                vec![
                    Value::text(gid),
                    Value::text(name),
                    Value::text(fam),
                    Value::Int(len),
                    Value::text("ACGT"),
                ],
            )
            .unwrap();
        }
        db.insert("protein", vec![Value::text("P1"), Value::text("JW0013"), Value::Float(42.5)])
            .unwrap();
        db
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let mut db = sample_db();
        // Tombstone a row so slot preservation is exercised.
        let victim = db.table_by_name("gene").unwrap().scan().nth(1).unwrap().id;
        db.delete(victim);

        let bytes = save(&db);
        let restored = load(&bytes).unwrap();

        assert_eq!(restored.total_tuples(), db.total_tuples());
        assert_eq!(restored.catalog().len(), db.catalog().len());
        assert_eq!(restored.catalog().foreign_keys(), db.catalog().foreign_keys());
        // Tuple ids and contents preserved.
        for table in ["gene", "protein"] {
            let a = db.table_by_name(table).unwrap();
            let b = restored.table_by_name(table).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.scan().zip(b.scan()) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.values, y.values);
            }
        }
        // The tombstoned slot stays dead.
        assert!(restored.get(victim).is_none());
        // Indexes were rebuilt: PK lookup and inverted lookup work.
        let gene = restored.table_by_name("gene").unwrap();
        assert!(gene.lookup_key(&Value::text("JW0013")).is_some());
        assert_eq!(restored.inverted_index().lookup("grpc").len(), 1);
        // Unsearchable columns stay unindexed.
        assert_eq!(restored.inverted_index().lookup("acgt").len(), 0);
        // The freed primary key is reusable, and new rows continue the id
        // sequence after the restored slots.
        let mut restored = restored;
        let new_id = restored
            .insert(
                "gene",
                vec![
                    Value::text("JW0014"),
                    Value::text("groP2"),
                    Value::text("F6"),
                    Value::Int(1),
                    Value::text("A"),
                ],
            )
            .unwrap();
        assert_eq!(new_id.row, 3, "new rows append after restored slots");
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(load(b"garbage").unwrap_err(), SnapshotError::BadMagic);
        assert_eq!(load(b"").unwrap_err(), SnapshotError::BadMagic);
    }

    #[test]
    fn truncation_detected_everywhere() {
        let db = sample_db();
        let bytes = save(&db);
        // Every proper prefix must fail cleanly, never panic.
        for cut in [8usize, 9, 15, 30, 60, bytes.len() - 1] {
            let result = load(&bytes[..cut.min(bytes.len() - 1)]);
            assert!(result.is_err(), "prefix of {cut} bytes must be rejected");
        }
    }

    #[test]
    fn empty_database_roundtrips() {
        let db = Database::new();
        let restored = load(&save(&db)).unwrap();
        assert_eq!(restored.total_tuples(), 0);
        assert!(restored.catalog().is_empty());
    }

    #[test]
    fn special_values_survive() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("t")
                .column("id", DataType::Int)
                .column("f", DataType::Float)
                .column("s", DataType::Text)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert("t", vec![Value::Int(i64::MIN), Value::Float(f64::NAN), Value::text("")])
            .unwrap();
        db.insert("t", vec![Value::Int(i64::MAX), Value::Null, Value::text("naïve ünïcode")])
            .unwrap();
        let restored = load(&save(&db)).unwrap();
        let rows: Vec<_> = restored.table_by_name("t").unwrap().scan().collect();
        assert_eq!(rows[0].values[0], Value::Int(i64::MIN));
        assert_eq!(rows[0].values[1], Value::Float(f64::NAN), "NaN bit-preserved");
        assert_eq!(rows[1].values[1], Value::Null);
        assert_eq!(rows[1].values[2], Value::text("naïve ünïcode"));
    }
}
