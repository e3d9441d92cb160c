//! Spill/thaw lifecycle corners that the headline isolation property
//! cannot reach on its own: a corrupt spill artifact surfacing (and the
//! tenant staying recreatable), a spill racing an in-flight mine, and a
//! queued batch whose drain fails surfacing its error instead of vanishing.

use std::sync::{mpsc, Arc};

use fsm_core::{
    Algorithm, Exec, IngestOutcome, LifecycleState, MinerConfig, RegistryConfig, SessionRegistry,
    StreamMiner, WorkerPool,
};
use fsm_storage::{Hibernation, StorageBackend, TempDir};
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeCatalog, FsmError, MinSup, Transaction};

fn config() -> MinerConfig {
    MinerConfig {
        algorithm: Algorithm::DirectVertical,
        window: WindowConfig::new(2).unwrap(),
        min_support: MinSup::absolute(2),
        backend: StorageBackend::Memory,
        catalog: Some(EdgeCatalog::complete(4)),
        ..MinerConfig::default()
    }
}

fn batches() -> Vec<Batch> {
    let t = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
    vec![
        Batch::from_transactions(0, vec![t(&[2, 3, 5]), t(&[0, 4, 5]), t(&[0, 2, 5])]),
        Batch::from_transactions(1, vec![t(&[0, 2, 3, 5]), t(&[0, 3, 4, 5]), t(&[0, 1, 2])]),
        Batch::from_transactions(2, vec![t(&[0, 2, 5]), t(&[0, 2, 3, 5]), t(&[1, 2, 3])]),
    ]
}

fn spilling_registry(root: &TempDir) -> SessionRegistry {
    SessionRegistry::new(RegistryConfig {
        spill_root: Some(root.path().into()),
        ..RegistryConfig::default()
    })
}

/// A corrupt spill artifact follows the recovery discipline: the thaw
/// fails with an error naming `window.hib`, the proven-corrupt artifact is
/// deleted so it cannot be retried into, and the tenant id stays usable —
/// drop it and create it afresh.
#[test]
fn corrupt_spill_artifact_is_named_and_tenant_is_recreatable() {
    let root = TempDir::new("lifecycle-corrupt").unwrap();
    let registry = spilling_registry(&root);
    let session = registry.create_tenant("victim", config(), false).unwrap();
    for batch in &batches() {
        session.ingest(batch).unwrap();
    }
    assert!(session.spill().unwrap());
    assert_eq!(session.state(), LifecycleState::Spilled);

    // Flip a byte in the middle of the artifact body.
    let artifact = Hibernation::artifact_path(&root.path().join("victim"));
    let mut bytes = std::fs::read(&artifact).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&artifact, &bytes).unwrap();

    let err = session.mine().unwrap_err();
    match &err {
        FsmError::CorruptArtifact { artifact, .. } => {
            assert!(
                artifact.contains("window.hib"),
                "error must name the spill artifact, got: {artifact:?}"
            );
        }
        other => panic!("expected CorruptArtifact, got: {other}"),
    }
    assert!(
        !artifact.exists(),
        "a proven-corrupt spill artifact must be deleted, not retried into"
    );

    // The tenant id is not poisoned: drop and recreate, and the fresh
    // tenant serves the stream like nothing happened.
    registry.drop_tenant("victim").unwrap();
    let fresh = registry.create_tenant("victim", config(), false).unwrap();
    let mut oracle = StreamMiner::new(config()).unwrap();
    for batch in &batches() {
        fresh.ingest(batch).unwrap();
        oracle.ingest_batch(batch).unwrap();
    }
    assert!(fresh
        .mine()
        .unwrap()
        .same_patterns_as(&oracle.mine().unwrap()));
}

/// A spill issued while a mine holds the window drains cleanly: the spill
/// blocks until the in-flight work releases the window, then lands, and
/// the next request thaws back to the exact same window.
#[test]
fn spill_racing_an_in_flight_mine_drains_cleanly() {
    let root = TempDir::new("lifecycle-race").unwrap();
    let registry = SessionRegistry::new(RegistryConfig {
        exec: Exec::pool(Arc::new(WorkerPool::new(2))),
        spill_root: Some(root.path().into()),
        ..RegistryConfig::default()
    });
    let session = registry.create_tenant("racer", config(), false).unwrap();
    for batch in &batches() {
        session.ingest(batch).unwrap();
    }
    let expected = session.mine().unwrap();

    // Hold the window hostage from another thread, issue the spill while
    // it is held, and only then release the hostage.
    let (hold_tx, hold_rx) = mpsc::channel::<()>();
    let (held_tx, held_rx) = mpsc::channel::<()>();
    let hostage = {
        let session = Arc::clone(&session);
        std::thread::spawn(move || {
            session
                .with_miner(move |_| {
                    held_tx.send(()).unwrap();
                    hold_rx.recv().unwrap();
                })
                .unwrap();
        })
    };
    held_rx.recv().unwrap();
    let spiller = {
        let session = Arc::clone(&session);
        std::thread::spawn(move || session.spill())
    };
    // The spill is now queued on the window lock; let the mine finish.
    std::thread::sleep(std::time::Duration::from_millis(20));
    hold_tx.send(()).unwrap();
    hostage.join().unwrap();
    assert!(
        spiller.join().unwrap().unwrap(),
        "the queued spill must land"
    );
    assert_eq!(session.state(), LifecycleState::Spilled);

    // Thaw-on-demand serves the exact pre-spill window.
    assert!(session.mine().unwrap().same_patterns_as(&expected));
    assert_ne!(session.state(), LifecycleState::Spilled);
    assert_eq!(session.status().thaws, 1);
}

/// A queued batch whose drain fails surfaces the error through
/// [`fsm_core::Session::with_miner`], exactly as it would through `ingest`,
/// `mine` or `spill`: the batch is parked while another caller holds the
/// window, its disk tenant's segment directory is replaced by a plain file
/// under that lock (so the segment write cannot even recreate it), and the
/// next `with_miner` must report the failed write instead of running the
/// closure over a window that silently lost the batch.
#[test]
fn with_miner_reports_a_failed_queued_drain() {
    let root = TempDir::new("lifecycle-drain").unwrap();
    let segments = root.path().join("segments");
    let registry = SessionRegistry::new(RegistryConfig::default());
    let session = registry
        .create_tenant(
            "drain",
            MinerConfig {
                backend: StorageBackend::DiskAt(segments.clone()),
                ..config()
            },
            false,
        )
        .unwrap();
    let stream = batches();
    session.ingest(&stream[0]).unwrap();

    let (hold_tx, hold_rx) = mpsc::channel::<()>();
    let (held_tx, held_rx) = mpsc::channel::<()>();
    let hostage = {
        let session = Arc::clone(&session);
        std::thread::spawn(move || {
            session
                .with_miner(move |_| {
                    held_tx.send(()).unwrap();
                    hold_rx.recv().unwrap();
                })
                .unwrap();
        })
    };
    held_rx.recv().unwrap();
    assert_eq!(session.ingest(&stream[1]).unwrap(), IngestOutcome::Queued);
    std::fs::remove_dir_all(&segments).unwrap();
    std::fs::write(&segments, b"not a directory").unwrap();
    hold_tx.send(()).unwrap();
    hostage.join().unwrap();

    let mut ran = false;
    let result = session.with_miner(|_| ran = true);
    assert!(
        matches!(result, Err(FsmError::Io(_))),
        "the failed drain must surface, got {result:?}"
    );
    assert!(
        !ran,
        "the closure must not run over a window that lost a batch"
    );
}
