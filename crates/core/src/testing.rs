//! Unit-test fixture: a small routed build assembled into a
//! [`PartitionedSystem`], removed from disk on drop.

use std::path::PathBuf;
use std::sync::Arc;

use trex_index::{IndexBuilder, TrexIndex};
use trex_storage::Store;
use trex_summary::{AliasMap, SummaryKind};
use trex_text::Analyzer;

use crate::partition::{partition_store_path, Partition, PartitionedSystem};
use crate::selfmanage::{ProfilerConfig, WorkloadProfiler};

pub(crate) struct TestSystem {
    system: PartitionedSystem,
    paths: Vec<PathBuf>,
}

impl TestSystem {
    /// Builds `docs` into `partitions` stores under the temp directory
    /// (identity aliases, verbatim analyzer) and opens the system on them.
    pub(crate) fn build(name: &str, partitions: usize, docs: &[String]) -> TestSystem {
        let base = std::env::temp_dir().join(format!("trex-core-{name}-{}", std::process::id()));
        let paths: Vec<PathBuf> = (0..partitions)
            .map(|i| partition_store_path(&base, i))
            .collect();
        let stores: Vec<Store> = paths
            .iter()
            .map(|path| Store::create(path, 128).unwrap())
            .collect();
        let mut builder = IndexBuilder::new_partitioned(
            stores.iter().collect(),
            SummaryKind::Incoming,
            AliasMap::identity(),
            Analyzer::verbatim(),
        )
        .unwrap();
        for doc in docs {
            builder.add_document(doc).unwrap();
        }
        builder.finish().unwrap();
        let parts = stores
            .into_iter()
            .map(|store| {
                Partition::new(
                    Arc::new(TrexIndex::open(Arc::new(store)).unwrap()),
                    Arc::new(WorkloadProfiler::new(ProfilerConfig::default())),
                )
            })
            .collect();
        TestSystem {
            system: PartitionedSystem::from_parts(parts),
            paths,
        }
    }
}

impl std::ops::Deref for TestSystem {
    type Target = PartitionedSystem;

    fn deref(&self) -> &PartitionedSystem {
        &self.system
    }
}

impl Drop for TestSystem {
    fn drop(&mut self) {
        for path in &self.paths {
            std::fs::remove_file(path).ok();
            std::fs::remove_file(trex_storage::wal_path(path)).ok();
        }
    }
}
