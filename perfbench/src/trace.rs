//! The traced client: the same wiring `blobseer_net::connect_remote` builds,
//! with a timing decorator around each of the three service traits.
//!
//! Every decorated call appends a [`Call`] (layer, kind, start, end, items,
//! bytes) to the client's [`Recorder`]. A client thread runs one operation
//! at a time and its transfer pool is private, so every call recorded
//! between an operation's start and end belongs to that operation; the
//! workload drains the recorder after each operation and folds the calls
//! into per-layer totals ([`LayerTotals`]).

use blobseer_core::{
    BlobClient, ChunkCache, ChunkService, MetadataService, NodeArtifact, TransferPool,
    VersionService, WriteKind, WriteTicket,
};
use blobseer_meta::{CachedMetadataStore, MetadataStore, NodeBody, NodeKey, SnapshotDescriptor};
use blobseer_net::{
    NetChunkService, NetMetadataService, NetVersionService, RemoteEndpoints, RpcEndpoint,
    TcpConnector, META_RPC_RETRIES, VM_RPC_RETRIES,
};
use blobseer_provider::PlacementRequest;
use blobseer_types::{
    BlobConfig, BlobId, ChunkEnvelope, ChunkId, ClientId, ClusterConfig, ProviderId, Result,
    TransportMetrics, Version,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The service plane a call went to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Vm,
    Meta,
    Chunk,
}

/// What a chunk-plane call did (the other planes need no split).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Allocate,
    Put,
    Get,
    Other,
}

/// One timed service call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub layer: Layer,
    pub kind: Kind,
    pub start: Instant,
    pub end: Instant,
    /// Nodes (metadata) or chunks (data plane) the call moved.
    pub items: u64,
    /// Physical chunk bytes the call moved.
    pub bytes: u64,
}

/// The calls one client made since the last drain.
#[derive(Default)]
pub struct Recorder(Mutex<Vec<Call>>);

impl Recorder {
    fn time<T>(f: impl FnOnce() -> T) -> (T, Instant, Instant) {
        let start = Instant::now();
        let out = f();
        (out, start, Instant::now())
    }

    fn push(&self, layer: Layer, kind: Kind, start: Instant, end: Instant, items: u64, bytes: u64) {
        self.0.lock().expect("recorder lock poisoned").push(Call {
            layer,
            kind,
            start,
            end,
            items,
            bytes,
        });
    }

    fn record<T>(
        &self,
        layer: Layer,
        kind: Kind,
        items: u64,
        bytes: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let (out, start, end) = Self::time(f);
        self.push(layer, kind, start, end, items, bytes);
        out
    }

    pub fn drain(&self) -> Vec<Call> {
        std::mem::take(&mut *self.0.lock().expect("recorder lock poisoned"))
    }
}

struct TimedVersions {
    inner: NetVersionService,
    rec: Arc<Recorder>,
}

impl TimedVersions {
    fn t<T>(&self, f: impl FnOnce(&NetVersionService) -> T) -> T {
        self.rec
            .record(Layer::Vm, Kind::Other, 1, 0, || f(&self.inner))
    }
}

impl VersionService for TimedVersions {
    fn create_blob(&self, config: BlobConfig) -> Result<BlobId> {
        self.t(|s| s.create_blob(config))
    }
    fn blob_config(&self, blob: BlobId) -> Result<BlobConfig> {
        self.t(|s| s.blob_config(blob))
    }
    fn latest_snapshot(&self, blob: BlobId) -> Result<SnapshotDescriptor> {
        self.t(|s| s.latest_snapshot(blob))
    }
    fn snapshot(&self, blob: BlobId, version: Version) -> Result<SnapshotDescriptor> {
        self.t(|s| s.snapshot(blob, version))
    }
    fn published_versions(&self, blob: BlobId) -> Result<Vec<Version>> {
        self.t(|s| s.published_versions(blob))
    }
    fn assign_ticket(&self, blob: BlobId, kind: WriteKind) -> Result<WriteTicket> {
        self.t(|s| s.assign_ticket(blob, kind))
    }
    fn complete_write(
        &self,
        blob: BlobId,
        version: Version,
        artifacts: Option<Vec<NodeArtifact>>,
    ) -> Result<Version> {
        self.t(|s| s.complete_write(blob, version, artifacts))
    }
    fn abort_write(
        &self,
        blob: BlobId,
        version: Version,
        artifacts: Option<Vec<NodeArtifact>>,
    ) -> Result<Version> {
        self.t(|s| s.abort_write(blob, version, artifacts))
    }
    fn pin(&self, blob: BlobId, version: Option<Version>) -> Result<(SnapshotDescriptor, u64)> {
        self.t(|s| s.pin(blob, version))
    }
    fn unpin(&self, blob: BlobId, version: Version, token: u64) {
        self.t(|s| s.unpin(blob, version, token));
    }
}

struct TimedMeta {
    inner: NetMetadataService,
    rec: Arc<Recorder>,
}

impl MetadataStore for TimedMeta {
    fn put_node(&self, key: NodeKey, body: NodeBody) -> Result<()> {
        self.rec.record(Layer::Meta, Kind::Put, 1, 0, || {
            self.inner.put_node(key, body)
        })
    }
    fn get_node(&self, key: &NodeKey) -> Result<Option<NodeBody>> {
        self.rec
            .record(Layer::Meta, Kind::Get, 1, 0, || self.inner.get_node(key))
    }
    fn get_nodes(&self, keys: &[NodeKey]) -> Result<Vec<Option<NodeBody>>> {
        let n = keys.len() as u64;
        self.rec
            .record(Layer::Meta, Kind::Get, n, 0, || self.inner.get_nodes(keys))
    }
    fn put_nodes(&self, nodes: Vec<(NodeKey, NodeBody)>) -> Result<()> {
        let n = nodes.len() as u64;
        self.rec
            .record(Layer::Meta, Kind::Put, n, 0, || self.inner.put_nodes(nodes))
    }
    fn delete_nodes(&self, keys: &[NodeKey]) -> Result<usize> {
        let n = keys.len() as u64;
        self.rec.record(Layer::Meta, Kind::Other, n, 0, || {
            self.inner.delete_nodes(keys)
        })
    }
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
}

struct TimedChunks {
    inner: NetChunkService,
    rec: Arc<Recorder>,
}

impl ChunkService for TimedChunks {
    fn allocate(&self, request: PlacementRequest) -> Result<Vec<Vec<ProviderId>>> {
        self.rec.record(Layer::Chunk, Kind::Allocate, 0, 0, || {
            self.inner.allocate(request)
        })
    }
    fn live_providers(&self) -> Vec<ProviderId> {
        self.rec.record(Layer::Chunk, Kind::Other, 0, 0, || {
            self.inner.live_providers()
        })
    }
    fn put_chunk(&self, provider: ProviderId, chunk: ChunkId, data: ChunkEnvelope) -> Result<()> {
        let bytes = data.physical_len();
        self.rec.record(Layer::Chunk, Kind::Put, 1, bytes, || {
            self.inner.put_chunk(provider, chunk, data)
        })
    }
    fn put_chunks(
        &self,
        provider: ProviderId,
        chunks: &[(ChunkId, ChunkEnvelope)],
    ) -> Vec<Result<()>> {
        let bytes = chunks.iter().map(|(_, d)| d.physical_len()).sum();
        self.rec
            .record(Layer::Chunk, Kind::Put, chunks.len() as u64, bytes, || {
                self.inner.put_chunks(provider, chunks)
            })
    }
    fn get_chunk(&self, provider: ProviderId, chunk: &ChunkId) -> Result<ChunkEnvelope> {
        let (out, start, end) = Recorder::time(|| self.inner.get_chunk(provider, chunk));
        let bytes = out.as_ref().map_or(0, ChunkEnvelope::physical_len);
        self.rec.push(Layer::Chunk, Kind::Get, start, end, 1, bytes);
        out
    }
    fn remove_chunks(&self, provider: ProviderId, chunks: &[ChunkId]) -> Result<u64> {
        self.rec
            .record(Layer::Chunk, Kind::Other, chunks.len() as u64, 0, || {
                self.inner.remove_chunks(provider, chunks)
            })
    }
}

/// Builds a client exactly as `connect_remote` does (same endpoints,
/// retries, sharding, metadata cache, chunk cache, codec and pipeline
/// depth), with every service call timed into the returned recorder.
pub fn connect_traced(
    config: &ClusterConfig,
    endpoints: &RemoteEndpoints,
    id: u64,
) -> (BlobClient, Arc<Recorder>) {
    let rec = Arc::new(Recorder::default());
    let io_timeout = config.io_timeout();
    let conns = config.connections_per_endpoint;
    let metrics = Arc::new(TransportMetrics::new());
    let endpoint = |addr| {
        RpcEndpoint::new(
            Arc::new(TcpConnector::new(addr)),
            io_timeout,
            Arc::clone(&metrics),
        )
        .with_connections(conns)
    };
    let providers = endpoints
        .providers
        .iter()
        .map(|&(id, addr)| (id, endpoint(addr)))
        .collect();
    let chunks = Arc::new(TimedChunks {
        inner: NetChunkService::new(endpoint(endpoints.manager), providers, Arc::clone(&metrics)),
        rec: Arc::clone(&rec),
    });
    let meta = Arc::new(TimedMeta {
        inner: NetMetadataService::new(endpoint(endpoints.meta).with_retries(META_RPC_RETRIES))
            .with_shards(config.metadata_providers),
        rec: Arc::clone(&rec),
    });
    let meta: Arc<dyn MetadataService> = if config.client_metadata_cache {
        Arc::new(CachedMetadataStore::new(meta))
    } else {
        meta
    };
    let versions = Arc::new(TimedVersions {
        inner: NetVersionService::new(endpoint(endpoints.vm).with_retries(VM_RPC_RETRIES)),
        rec: Arc::clone(&rec),
    });
    let cache =
        (config.chunk_cache_bytes > 0).then(|| Arc::new(ChunkCache::new(config.chunk_cache_bytes)));
    let transfers = Arc::new(
        TransferPool::new(config.transfer_workers)
            .with_join_timeout(config.io_timeout().map(|t| t * 8)),
    );
    let client = BlobClient::new(ClientId(id), versions, chunks, meta, transfers)
        .with_pipeline_depth(config.pipeline_depth)
        .with_chunk_cache(cache)
        .with_chunk_codec(config.chunk_codec)
        .with_transport_metrics(Some(metrics));
    (client, rec)
}

/// Length of the union of `[start, end)` intervals (nanoseconds).
fn union_ns(mut spans: Vec<(Instant, Instant)>) -> f64 {
    spans.sort_by_key(|s| s.0);
    let mut total = 0.0;
    let mut cur: Option<(Instant, Instant)> = None;
    for (s, e) in spans {
        match &mut cur {
            Some((_, ce)) if s <= *ce => {
                if e > *ce {
                    *ce = e;
                }
            }
            _ => {
                if let Some((cs, ce)) = cur {
                    total += (ce - cs).as_nanos() as f64;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += (ce - cs).as_nanos() as f64;
    }
    total
}

/// Per-layer totals over a set of operations of one type (all times ms).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub ops: u64,
    pub op_ms: f64,
    /// Op time covered by no service call.
    pub self_ms: f64,
    pub vm_ms: f64,
    pub vm_calls: u64,
    pub meta_ms: f64,
    pub meta_calls: u64,
    pub meta_nodes: u64,
    /// Union of put (write) or get (read) calls.
    pub chunk_ms: f64,
    /// Union of every data-plane call (placement included).
    pub chunk_all_ms: f64,
    pub allocate_ms: f64,
    pub puts: u64,
    pub gets: u64,
    pub put_bytes: u64,
    /// Summed chunk-call time, against `chunk_ms` for the parallelism.
    pub chunk_busy_ms: f64,
}

impl LayerTotals {
    /// Folds one operation `[start, end)` and the calls it made.
    pub fn add(&mut self, start: Instant, end: Instant, calls: &[Call]) {
        let ms = |ns: f64| ns / 1e6;
        let spans = |pick: &dyn Fn(&Call) -> bool| {
            calls
                .iter()
                .filter(|c| pick(c))
                .map(|c| (c.start, c.end))
                .collect::<Vec<_>>()
        };
        let op_ms = (end - start).as_nanos() as f64 / 1e6;
        self.ops += 1;
        self.op_ms += op_ms;
        self.self_ms += (op_ms - ms(union_ns(spans(&|_| true)))).max(0.0);
        self.vm_ms += ms(union_ns(spans(&|c| c.layer == Layer::Vm)));
        self.meta_ms += ms(union_ns(spans(&|c| c.layer == Layer::Meta)));
        self.chunk_ms += ms(union_ns(spans(&|c| {
            c.layer == Layer::Chunk && matches!(c.kind, Kind::Put | Kind::Get)
        })));
        self.chunk_all_ms += ms(union_ns(spans(&|c| c.layer == Layer::Chunk)));
        self.allocate_ms += ms(union_ns(spans(&|c| c.kind == Kind::Allocate)));
        for c in calls {
            match (c.layer, c.kind) {
                (Layer::Vm, _) => self.vm_calls += 1,
                (Layer::Meta, _) => {
                    self.meta_calls += 1;
                    self.meta_nodes += c.items;
                }
                (Layer::Chunk, Kind::Put) => {
                    self.puts += c.items;
                    self.put_bytes += c.bytes;
                    self.chunk_busy_ms += (c.end - c.start).as_nanos() as f64 / 1e6;
                }
                (Layer::Chunk, Kind::Get) => {
                    self.gets += c.items;
                    self.chunk_busy_ms += (c.end - c.start).as_nanos() as f64 / 1e6;
                }
                (Layer::Chunk, _) => {}
            }
        }
    }

    pub fn merge(&mut self, o: &LayerTotals) {
        self.ops += o.ops;
        self.op_ms += o.op_ms;
        self.self_ms += o.self_ms;
        self.vm_ms += o.vm_ms;
        self.vm_calls += o.vm_calls;
        self.meta_ms += o.meta_ms;
        self.meta_calls += o.meta_calls;
        self.meta_nodes += o.meta_nodes;
        self.chunk_ms += o.chunk_ms;
        self.chunk_all_ms += o.chunk_all_ms;
        self.allocate_ms += o.allocate_ms;
        self.puts += o.puts;
        self.gets += o.gets;
        self.put_bytes += o.put_bytes;
        self.chunk_busy_ms += o.chunk_busy_ms;
    }

    /// Share of op time that self time plus the per-layer unions explain:
    /// 1 when calls never overlap, above 1 when planes run in parallel.
    pub fn accounted_share(&self) -> f64 {
        (self.self_ms + self.vm_ms + self.meta_ms + self.chunk_all_ms)
            / self.op_ms.max(f64::MIN_POSITIVE)
    }
}
