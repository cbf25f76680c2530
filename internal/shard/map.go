// Package shard partitions the page space across N esm page servers
// (DESIGN.md §16). A deterministic shard map routes every page, file, and
// name to exactly one shard; the client-side Router fans a session's
// requests out over per-shard transports and runs presumed-abort
// two-phase commit for transactions that touch more than one shard.
//
// Identifiers are partitioned by prefix: the top ShardBits of a 32-bit
// page or file id name the owning shard, the remaining bits are the
// shard-local id. The Router rewrites ids at the boundary in both
// directions, so each server works entirely in its own dense local id
// space and a single-shard deployment is bit-for-bit identical to an
// unsharded one (shard 0's prefix is zero).
package shard

import (
	"fmt"
	"hash/fnv"
	"strings"

	"quickstore/internal/esm"
	"quickstore/internal/repl"
)

const (
	// ShardBits is the width of the shard prefix in page and file ids.
	ShardBits = 6
	// MaxShards is the largest cluster the id encoding can address.
	MaxShards = 1 << ShardBits

	localBits = 32 - ShardBits
	localMask = 1<<localBits - 1
)

// Map is the deterministic shard map: the single source of routing truth
// for a sharded cluster. Every lookup — which shard owns a page, a file,
// a name — is a pure function of the map, so any two clients with the
// same map agree on placement with no coordination.
type Map struct {
	// addrs is the endpoint table, one entry per shard; an entry may be a
	// single address or a "|"-separated replica group (the Router then
	// follows that shard's leader through a repl.Director). It is
	// unexported so the only way in is ParseMap and the only way out is
	// the Router or the Dial helpers: no caller can address a shard
	// endpoint without consulting the map, or build a table ParseMap did
	// not validate.
	addrs []string
}

// ParseMap parses a comma-separated shard map spec, e.g.
// "host1:7070,host2:7070" or "a:1|a:2|a:3,b:1|b:2|b:3" with replica
// groups.
func ParseMap(spec string) (Map, error) {
	var m Map
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return Map{}, fmt.Errorf("shard: empty endpoint in map spec %q", spec)
		}
		m.addrs = append(m.addrs, part)
	}
	if len(m.addrs) > MaxShards {
		return Map{}, fmt.Errorf("shard: %d shards exceeds the %d-shard id space", len(m.addrs), MaxShards)
	}
	return m, nil
}

// NumShards returns the cluster width.
func (m Map) NumShards() int { return len(m.addrs) }

// ShardOfPage returns the shard owning global page id pid.
func ShardOfPage(pid uint32) int { return int(pid >> localBits) }

// LocalPage strips the shard prefix from a global page id.
func LocalPage(pid uint32) uint32 { return pid & localMask }

// GlobalPage builds a global page id from a shard and its local id.
func GlobalPage(shard int, local uint32) uint32 {
	return uint32(shard)<<localBits | (local & localMask)
}

// ShardOfFile returns the shard owning global file id fid. File ids use
// the same prefix encoding as pages so file-granularity locks route the
// same way.
func ShardOfFile(fid uint32) int { return int(fid >> localBits) }

// LocalFile strips the shard prefix from a global file id.
func LocalFile(fid uint32) uint32 { return fid & localMask }

// GlobalFile builds a global file id from a shard and its local id.
func GlobalFile(shard int, local uint32) uint32 {
	return uint32(shard)<<localBits | (local & localMask)
}

// ShardOfName routes a catalog name (file, root, or counter) to a shard
// by FNV-1a hash. Names are the only identifiers with no embedded shard
// prefix, so their placement is the hash — deterministic across clients.
func ShardOfName(name string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return int(h.Sum32() % uint32(n))
}

// NameOnShard derives a name with the given prefix that ShardOfName
// places on the target shard, by suffix search. Partitionable workloads
// (the shard bench, the README quickstart) use it to co-locate a
// session's file with its page-allocation affinity shard.
func NameOnShard(prefix string, target, n int) string {
	if ShardOfName(prefix, n) == target {
		return prefix
	}
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s.%d", prefix, i)
		if ShardOfName(name, n) == target {
			return name
		}
	}
}

// Dialer opens a transport to one endpoint address.
type Dialer func(addr string) (esm.Transport, error)

// DialTransports opens one transport per shard from the map: a plain
// transport for single-address entries, a repl.Director following the
// group's leader for replica groups. This is the only path from the
// address table to connections.
func (m Map) DialTransports(dial Dialer) ([]esm.Transport, error) {
	trs := make([]esm.Transport, 0, len(m.addrs))
	fail := func(err error) ([]esm.Transport, error) {
		for _, tr := range trs {
			_ = tr.Close()
		}
		return nil, err
	}
	for i, spec := range m.addrs {
		group := strings.Split(spec, "|")
		if len(group) == 1 {
			tr, err := dial(group[0])
			if err != nil {
				return fail(fmt.Errorf("shard %d: dialing %s: %w", i, group[0], err))
			}
			trs = append(trs, tr)
			continue
		}
		eps := make([]repl.Endpoint, 0, len(group))
		for _, addr := range group {
			eps = append(eps, repl.Endpoint{ID: addr, Addr: addr})
		}
		trs = append(trs, repl.NewDirector(eps, repl.DirectorConfig{Dial: dial}))
	}
	return trs, nil
}
