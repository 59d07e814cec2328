package main

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/query"
	"repro/internal/wal"
)

// TestValidateFlags pins every rejected combination to its named error, so
// misconfigurations fail fast with a reason instead of a late panic.
func TestValidateFlags(t *testing.T) {
	ok := serveFlags{maxBatch: query.MaxBatchKeys, cacheSize: 4096}
	if err := ok.validate(); err != nil {
		t.Fatalf("default-equivalent flags rejected: %v", err)
	}
	tuned := ok
	tuned.cacheSize = 1
	tuned.cacheTTL = time.Second
	if err := tuned.validate(); err != nil {
		t.Fatalf("tuned cache flags rejected: %v", err)
	}
	epochal := ok
	epochal.epoch = 10 * time.Second
	epochal.window = 8
	if err := epochal.validate(); err != nil {
		t.Fatalf("epoch+window rejected: %v", err)
	}
	replica := ok
	replica.peers = "http://a:1, http://b:2/" // normalization must not desync -self
	replica.self = "http://b:2"
	replica.replEvery = 5 * time.Second
	if err := replica.validate(); err != nil {
		t.Fatalf("replica flags rejected: %v", err)
	}
	if idx, err := replica.selfIndex(); idx != 1 || err != nil {
		t.Fatalf("selfIndex = %d, %v; want 1", idx, err)
	}
	router := ok
	router.peers = "http://a:1,http://b:2,http://c:3"
	router.router = true
	if err := router.validate(); err != nil {
		t.Fatalf("router flags rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*serveFlags)
		want   error
	}{
		{"window without epoch", func(f *serveFlags) { f.window = 8 }, errWindowWithoutEpoch},
		{"negative window", func(f *serveFlags) { f.window = -1; f.epoch = time.Second }, errNegativeWindow},
		{"negative epoch", func(f *serveFlags) { f.epoch = -time.Second }, errNegativeEpoch},
		{"zero max-batch", func(f *serveFlags) { f.maxBatch = 0 }, errBadMaxBatch},
		{"oversized max-batch", func(f *serveFlags) { f.maxBatch = query.MaxBatchKeys + 1 }, errBadMaxBatch},
		{"zero cache", func(f *serveFlags) { f.cacheSize = 0 }, errBadCacheSize},
		{"negative ttl", func(f *serveFlags) { f.cacheTTL = -time.Second }, errNegativeCacheTTL},
		{"interval without path", func(f *serveFlags) { f.ckptEvery = time.Minute }, errCheckpointEveryNoPath},
		{"negative shards", func(f *serveFlags) { f.shards = -2 }, errNegativeShards},
		{"shards with collector", func(f *serveFlags) { f.shards = 4; f.collector = "127.0.0.1:7777" }, errShardsWithCollector},
		{"negative ingest workers", func(f *serveFlags) { f.ingWorkers = -1 }, errNegativeIngestWorkers},
		{"negative ingest queue", func(f *serveFlags) { f.ingQueue = -1 }, errBadIngestQueue},
		{"router without peers", func(f *serveFlags) { f.router = true }, errRouterNeedsPeers},
		{"self without peers", func(f *serveFlags) { f.self = "http://a:1" }, errSelfNeedsPeers},
		{"router with self", func(f *serveFlags) {
			f.router = true
			f.peers = "http://a:1,http://b:2"
			f.self = "http://a:1"
		}, errRouterWithSelf},
		{"peers without role", func(f *serveFlags) { f.peers = "http://a:1,http://b:2" }, errPeersNeedRole},
		{"cluster with collector", func(f *serveFlags) {
			f.router = true
			f.peers = "http://a:1"
			f.collector = "127.0.0.1:7777"
		}, errClusterWithCollector},
		{"cluster with epoch", func(f *serveFlags) {
			f.peers = "http://a:1,http://b:2"
			f.self = "http://a:1"
			f.epoch = time.Second
		}, errClusterWithEpoch},
		{"router with wal", func(f *serveFlags) {
			f.router = true
			f.peers = "http://a:1"
			f.walDir = "/tmp/wal"
			f.walSegSize = 4096
		}, errRouterIsStateless},
		{"wal with epoch", func(f *serveFlags) {
			f.walDir = "/tmp/wal"
			f.walSegSize = 4096
			f.epoch = time.Second
		}, wal.ErrEpochMode},
		{"wal with drop policy", func(f *serveFlags) {
			f.walDir = "/tmp/wal"
			f.walSegSize = 4096
			f.ingPolicy = "drop"
		}, wal.ErrDropPolicy},
		{"wal with a group-commit interval", func(f *serveFlags) {
			f.walDir = "/tmp/wal"
			f.walSegSize = 4096
			f.walFsync = "5ms"
		}, wal.ErrFsyncPolicy},
		{"router with checkpoint", func(f *serveFlags) {
			f.router = true
			f.peers = "http://a:1"
			f.ckpt = "state.ckpt"
		}, errRouterIsStateless},
		{"negative replicate-every", func(f *serveFlags) {
			f.peers = "http://a:1,http://b:2"
			f.self = "http://a:1"
			f.replEvery = -time.Second
		}, errNegativeReplicate},
		{"replicate-every on router", func(f *serveFlags) {
			f.router = true
			f.peers = "http://a:1"
			f.replEvery = time.Second
		}, errReplicateNeedsReplica},
		{"negative vnodes", func(f *serveFlags) {
			f.peers = "http://a:1,http://b:2"
			f.self = "http://a:1"
			f.vnodes = -1
		}, errNegativeVNodes},
		{"self outside peers", func(f *serveFlags) {
			f.peers = "http://a:1,http://b:2"
			f.self = "http://c:3"
		}, cluster.ErrNotReplica},
	}
	for _, c := range cases {
		f := ok
		c.mutate(&f)
		if err := f.validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}
