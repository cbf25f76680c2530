package harness

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/faultinject"
	"quickstore/internal/shard"
	"quickstore/internal/wal"
)

// DrillReport is the outcome of one drill: single node, replicated or
// sharded. Violations lists every broken invariant; a clean drill has none.
type DrillReport struct {
	Crashed    bool  // the armed crash fired during the workload
	Committed  int   // transactions whose commit was acknowledged
	Aborted    int   // transactions whose abort was acknowledged
	InDoubt    bool  // a commit was cut off mid-protocol
	Retries    int64 // client requests re-sent after transient faults
	WarmFrames int   // clean tokened client frames checked against the recovered server

	ForcedKill bool   // replicated: the point never fired; the leader was killed after the workload
	NewLeader  string // replicated: the follower elected after the kill
	Term       uint64 // replicated: the cluster term after failover

	Resolved *shard.ResolveOutcome // sharded: what the post-restart resolution sweep settled

	Violations []string // broken invariants (empty = drill passed)
	Trace      []string // the killed node's fault-plane trace, for reproducing a failure
}

func (r *DrillReport) violate(format string, args ...interface{}) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// drillNode is one fault-wired storage node: a volume and a log (the files
// vol and log under dir, or memory when dir is "") and a server on them. A
// non-nil plane is wired into the volume's I/O hook, the log's flush hook
// and the server, so disk, wal, commit, steal and 2PC points all fire on
// the node's paths.
type drillNode struct {
	dir  string
	file *disk.FileVolume // nil for a memory node
	log  *wal.Log
	srv  *esm.Server
}

func newDrillNode(dir string, plane *faultinject.Plane, cfg esm.ServerConfig) (*drillNode, error) {
	n := &drillNode{dir: dir}
	var vol disk.Volume
	if dir == "" {
		vol, n.log = disk.NewMemVolume(), wal.NewMemLog()
	} else {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		if n.file, err = disk.CreateFileVolume(filepath.Join(dir, "vol")); err != nil {
			return nil, err
		}
		vol = n.file
		if n.log, err = wal.CreateFileLog(filepath.Join(dir, "log")); err != nil {
			return nil, err
		}
	}
	if plane != nil {
		vol = disk.WithHook(vol, plane)
		n.log.FlushHook = plane.FlushHook()
		cfg.Fault = plane
	}
	var err error
	n.srv, err = esm.NewServer(vol, n.log, cfg)
	return n, err
}

// kill stops a file node the way its process would die: the descriptors
// are dropped and nothing is written back.
func (n *drillNode) kill() error {
	if err := n.file.Abandon(); err != nil {
		return err
	}
	_ = n.log.Close() // a closed log writes nothing back either
	return nil
}

// restart reopens a killed file node's files the way a fresh process finds
// them, checks that the pruned log iterates with monotone LSNs, and runs
// restart recovery. On success the caller closes the node; on failure
// restart has closed what it opened.
func (n *drillNode) restart(cfg esm.ServerConfig) (*esm.Server, error) {
	vol, err := disk.OpenFileVolume(filepath.Join(n.dir, "vol"))
	if err != nil {
		return nil, fmt.Errorf("reopen volume: %w", err)
	}
	logf, err := wal.OpenFileLog(filepath.Join(n.dir, "log"))
	if err != nil {
		_ = vol.Close()
		return nil, fmt.Errorf("reopen log: %w", err)
	}
	n.file, n.log = vol, logf
	var prev wal.LSN
	if ierr := logf.Iterate(func(r wal.Record) bool {
		if r.LSN <= prev {
			err = fmt.Errorf("log LSNs not monotone: %d after %d", r.LSN, prev)
			return false
		}
		prev = r.LSN
		return true
	}); ierr != nil {
		err = fmt.Errorf("log iterate: %w", ierr)
	}
	if err == nil {
		if n.srv, err = esm.OpenServer(vol, logf, cfg); err != nil {
			err = fmt.Errorf("restart recovery: %w", err)
		}
	}
	if err != nil {
		n.close()
		return nil, err
	}
	return n.srv, nil
}

func (n *drillNode) close() {
	_ = n.file.Close() // after a drill: nothing left to make durable
	_ = n.log.Close()
}

// oracle knows what every key must read after recovery. Keys fall into
// groups (a workload session, or the one transaction a drill's workload
// has in flight), and each group has at most one cut-off transaction,
// which recovery must apply to all of its keys or to none.
type oracle []oracleKey

type oracleKey struct {
	committed uint64 // last value whose commit was acknowledged
	inDoubt   uint64 // value the group's cut-off transaction wrote
	touched   bool   // the group's cut-off transaction wrote this key
	group     int
}

// acked records an acknowledged commit of vals (key index -> value).
func (o oracle) acked(vals map[int]uint64) {
	for i, v := range vals {
		o[i].committed = v
	}
}

// cutOff records a commit of vals cut off mid-protocol: recovery decides
// whether it happened.
func (o oracle) cutOff(vals map[int]uint64) {
	for i, v := range vals {
		o[i].inDoubt, o[i].touched = v, true
	}
}

// verify reads every key through read and checks the one rule: a key holds
// its committed value, or the value of its group's cut-off transaction, with
// an intact checksum; and each cut-off transaction resolved all or nothing.
func (o oracle) verify(rep *DrillReport, read func(i int) ([]byte, error)) {
	groups := 0
	for _, k := range o {
		groups = max(groups, k.group+1)
	}
	applied, undone := make([]int, groups), make([]int, groups)
	for i, k := range o {
		data, err := read(i)
		if err != nil {
			rep.violate("key %d unreadable: %v", i, err)
			continue
		}
		got, ok := getValue(data)
		switch {
		case !ok:
			rep.violate("key %d checksum broken (value %#x)", i, got)
		case k.touched && got == k.inDoubt:
			applied[k.group]++
		case got == k.committed:
			if k.touched {
				undone[k.group]++
			}
		case k.touched:
			rep.violate("key %d holds %#x, want %#x or in-doubt %#x", i, got, k.committed, k.inDoubt)
		default:
			rep.violate("key %d holds %#x, want %#x", i, got, k.committed)
		}
	}
	for g := range applied {
		if applied[g] > 0 && undone[g] > 0 {
			rep.violate("ATOMICITY: group %d's cut-off transaction applied to %d of its %d keys",
				g, applied[g], applied[g]+undone[g])
		}
	}
}

// putValue encodes value and its checksum into the first 12 payload
// bytes. The checksum rides inside the page, so any torn or misdirected
// page write that slices through a payload is detectable after recovery.
func putValue(p []byte, value uint64) {
	binary.LittleEndian.PutUint64(p[:8], value)
	binary.LittleEndian.PutUint32(p[8:12], crc32.ChecksumIEEE(p[:8]))
}

// getValue decodes a payload written by putValue, verifying the checksum.
func getValue(p []byte) (uint64, bool) {
	v := binary.LittleEndian.Uint64(p[:8])
	return v, crc32.ChecksumIEEE(p[:8]) == binary.LittleEndian.Uint32(p[8:12])
}

// writeValue sets the object at oid to v inside c's transaction and logs
// the change.
func writeValue(c *esm.Client, oid esm.OID, v uint64) error {
	data, off, frame, err := c.ReadObjectAt(oid)
	if err != nil {
		return err
	}
	old := append([]byte(nil), data[:12]...)
	putValue(data, v)
	c.Pool().MarkDirty(frame)
	c.LogUpdate(oid.Page, off, old, append([]byte(nil), data[:12]...))
	return nil
}

// Cell is one run of a drill sweep.
type Cell struct {
	Label string                                 // what reproduces the run: victim, point, hit, seed
	Run   func(dir string) (*DrillReport, error) // dir is a fresh scratch directory
}

// Tally sums a sweep's reports.
type Tally struct{ Runs, Crashed, Failovers, Violations int }

// Sweep runs the cells in order, each in a fresh scratch directory under
// dir, and hands each report to each. It stops at the first harness error.
func Sweep(dir string, cells []Cell, each func(Cell, *DrillReport)) (Tally, error) {
	var t Tally
	for _, c := range cells {
		sub, err := os.MkdirTemp(dir, "cell-*")
		if err != nil {
			return t, err
		}
		rep, err := c.Run(sub)
		_ = os.RemoveAll(sub) // scratch only; a leftover directory changes no result
		if err != nil {
			return t, fmt.Errorf("%s: %w", c.Label, err)
		}
		t.Runs++
		if rep.Crashed {
			t.Crashed++
		}
		if rep.NewLeader != "" {
			t.Failovers++
		}
		t.Violations += len(rep.Violations)
		each(c, rep)
	}
	return t, nil
}
