use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use nlq_storage::Table;

use crate::ast::SelectStmt;
use crate::{EngineError, Result};

/// A named object in the database.
#[derive(Clone)]
pub(crate) enum CatalogEntry {
    /// A materialized table.
    Table(Arc<Table>),
    /// A view: the defining query, executed on access (§3.6's
    /// "dynamically computed on-demand" alternative).
    View(Arc<SelectStmt>),
}

/// The table/view catalog. Names are case-insensitive.
#[derive(Default)]
pub(crate) struct Catalog {
    map: RwLock<HashMap<String, CatalogEntry>>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    pub fn get(&self, name: &str) -> Option<CatalogEntry> {
        self.map
            .read()
            .expect("catalog lock")
            .get(&name.to_ascii_lowercase())
            .cloned()
    }

    /// Registers a new entry; errors if the name is taken.
    pub fn insert(&self, name: &str, entry: CatalogEntry) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let mut map = self.map.write().expect("catalog lock");
        if map.contains_key(&key) {
            return Err(EngineError::DuplicateTable(name.to_owned()));
        }
        map.insert(key, entry);
        Ok(())
    }

    /// Removes an entry; errors if absent.
    pub fn remove(&self, name: &str) -> Result<()> {
        if self
            .map
            .write()
            .expect("catalog lock")
            .remove(&name.to_ascii_lowercase())
            .is_none()
        {
            return Err(EngineError::UnknownTable(name.to_owned()));
        }
        Ok(())
    }

    /// Every entry, name-sorted (checkpoint snapshots iterate this for
    /// a deterministic manifest).
    pub fn entries(&self) -> Vec<(String, CatalogEntry)> {
        let map = self.map.read().expect("catalog lock");
        let mut out: Vec<(String, CatalogEntry)> =
            map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Replaces a table in place (used by INSERT).
    pub fn replace_table(&self, name: &str, table: Arc<Table>) {
        self.map
            .write()
            .expect("catalog lock")
            .insert(name.to_ascii_lowercase(), CatalogEntry::Table(table));
    }
}
