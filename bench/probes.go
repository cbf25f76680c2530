package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"quickstore/internal/buffer"
	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/lock"
	"quickstore/internal/mvcc"
	"quickstore/internal/pagedelta"
	"quickstore/internal/vmem"
	"quickstore/internal/wal"
)

// probeNames lists the isolated probes: layers with no interface seam to
// decorate, timed by direct calls with fixed inputs. Each is a unit cost;
// count x probe is the paper's Table 6 method.
var probeNames = []struct{ name, unit string }{
	{"vmem_read_ns", "ns"},
	{"lock_acquire_release_ns", "ns"},
	{"latchpool_hit_ns", "ns"},
	{"latchpool_miss_us", "us"},
	{"wal_append_ns", "ns"},
	{"wal_force_us", "us"},
	{"pagedelta_encode_us", "us"},
	{"pagedelta_apply_us", "us"},
	{"mvcc_capture_lookup_ns", "ns"},
	{"mux_roundtrip_us", "us"},
}

// probeSink keeps the compiler from dropping the vmem probe's reads.
var probeSink uint32

// perCall times n calls of fn in batches and returns the median batch's
// time per call in ns, which shrugs off a batch that caught a GC or a
// descheduling.
func perCall(n int, fn func(i int)) float64 {
	const batches = 9
	per := max(1, n/batches)
	var ns []float64
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < per; i++ {
			fn(b*per + i)
		}
		ns = append(ns, float64(time.Since(start))/float64(per))
	}
	return p50(ns)
}

// runProbes measures every probe once. dir is where the WAL probe's file
// goes, so its force is an fsync on the same filesystem the workloads use.
// scale shrinks the iteration counts for the smoke test.
func runProbes(dir string, scale float64) (map[string]float64, error) {
	out := map[string]float64{}
	perCall := func(n int, fn func(i int)) float64 { return perCall(int(float64(n)*scale), fn) }

	// vmem: a mapped, read-enabled frame; no fault on any access.
	sp := vmem.NewSpace(0x1000_0000, 16, nil)
	frame := make([]byte, disk.PageSize)
	if err := sp.Map(sp.Base(), frame, vmem.ProtRead); err != nil {
		return nil, err
	}
	out["vmem_read_ns"] = perCall(900_000, func(i int) {
		v, _ := sp.ReadU32(sp.Base() + vmem.Addr(i&1023)*8)
		probeSink += v
	})

	// lock: an uncontended exclusive page lock, acquired and released.
	lm := lock.New(time.Second)
	var lockErr error
	out["lock_acquire_release_ns"] = perCall(180_000, func(i int) {
		if err := lm.Acquire(1, lock.PageRes(uint32(i&255)), lock.Exclusive); err != nil {
			lockErr = err
		}
		lm.ReleaseAll(1)
	})
	if lockErr != nil {
		return nil, lockErr
	}

	// latch pool: a resident page (hit), and a load that must evict a clean
	// page first (miss; the loader does no I/O, so this is the pool's own cost).
	lp := buffer.NewLatchPool(256)
	load := func(buf []byte) error { return nil }
	var poolErr error
	get := func(pid disk.PageID) {
		ref, _, err := lp.Load(pid, load)
		if err != nil {
			poolErr = err
			return
		}
		ref.Release()
	}
	for pid := disk.PageID(1); pid <= 256; pid++ {
		get(pid)
	}
	out["latchpool_hit_ns"] = perCall(450_000, func(i int) { get(disk.PageID(1 + i&127)) })
	out["latchpool_miss_us"] = perCall(90_000, func(i int) { get(disk.PageID(1000 + i)) }) / 1e3
	if poolErr != nil {
		return nil, poolErr
	}

	// wal: appending a 64-byte update record, and forcing one to the file.
	path := filepath.Join(dir, fmt.Sprintf("probe-%d.log", os.Getpid()))
	lg, err := wal.CreateFileLog(path)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	defer lg.Close()
	rec := wal.Record{Tx: 1, Type: wal.RecUpdate, Page: 7, Off: 128, Old: make([]byte, 32), New: make([]byte, 32)}
	out["wal_append_ns"] = perCall(90_000, func(int) { lg.Append(rec) })
	if err := lg.Flush(); err != nil {
		return nil, err
	}
	var forceErr error
	out["wal_force_us"] = perCall(90, func(int) {
		lsn := lg.Append(wal.Record{Tx: 1, Type: wal.RecCommit})
		if err := lg.FlushCommit(lsn); err != nil {
			forceErr = err
		}
	}) / 1e3
	if forceErr != nil {
		return nil, forceErr
	}

	// pagedelta: a page with 20 scattered 8-byte changes (T2B's shape: x and
	// y of the atomic parts on one page).
	old := make([]byte, disk.PageSize)
	for i := range old {
		old[i] = byte(i * 31)
	}
	cur := append([]byte(nil), old...)
	for k := 0; k < 20; k++ {
		for j := 0; j < 8; j++ {
			cur[200+k*390+j]++
		}
	}
	var patch []byte
	out["pagedelta_encode_us"] = perCall(18_000, func(int) { patch = pagedelta.Encode(old, cur) }) / 1e3
	if patch == nil {
		return nil, fmt.Errorf("probe: pagedelta.Encode refused a 20-run patch")
	}
	target := append([]byte(nil), old...)
	var applyErr error
	out["pagedelta_apply_us"] = perCall(90_000, func(int) {
		if err := pagedelta.Apply(target, patch); err != nil {
			applyErr = err
		}
	}) / 1e3
	if applyErr != nil {
		return nil, applyErr
	}

	// mvcc: file a before-image, commit it, resolve it for an older snapshot.
	mv := mvcc.New(0)
	var mvErr error
	out["mvcc_capture_lookup_ns"] = perCall(27_000, func(i int) {
		tx, lsn := uint64(i+1), wal.LSN(10*(i+1))
		mv.Pin(lsn - 5)
		mv.CaptureBefore(9, tx, old)
		mv.Commit(tx, lsn)
		if _, err := mv.Lookup(9, lsn-5); err != nil {
			mvErr = err
		}
		mv.Unpin(lsn - 5)
	})
	if mvErr != nil {
		return nil, mvErr
	}

	// mux: one empty request and response over loopback TCP through
	// MuxTransport and Serve, against a handler that does nothing.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan struct{})
	go func() {
		esm.Serve(ln, nopHandler{})
		close(served)
	}()
	defer func() {
		ln.Close()
		<-served
	}()
	tr, err := esm.DialTCP(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	var callErr error
	out["mux_roundtrip_us"] = perCall(9_000, func(int) {
		if _, err := tr.Call(&esm.Request{Op: esm.OpStats}); err != nil {
			callErr = err
		}
	}) / 1e3
	if callErr != nil {
		return nil, callErr
	}
	return out, nil
}

type nopHandler struct{}

func (nopHandler) Handle(*esm.Request) *esm.Response { return &esm.Response{} }
