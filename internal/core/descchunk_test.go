package core_test

import (
	"bytes"
	"testing"

	"quickstore/internal/core"
	"quickstore/internal/esm"
	"quickstore/internal/oo7"
	"quickstore/internal/vmem"
)

// TestDescriptorsStableAcrossChunks: a cold T1 takes its page descriptors
// from more than three chunks. Every descriptor stays where the address
// tree and the physical-address table found it, and a page read through one
// again — in a later transaction, and after its frame was evicted and the
// read faulted it back in — has the same bytes.
func TestDescriptorsStableAcrossChunks(t *testing.T) {
	env, err := smallDB()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Cold(); err != nil {
		t.Fatal(err)
	}
	st, err := core.Open(esm.NewClient(esm.NewInProcTransport(env.Srv), esm.ClientConfig{}), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oo7.T1(oo7.NewQS(st, false)); err != nil {
		t.Fatal(err)
	}
	if n := st.DescChunks(); n <= 3 {
		t.Fatalf("a cold T1 filled %d descriptor chunks for %d descriptors, want more than 3", n, st.DescCount())
	}

	// Every 7th small page T1 mapped: samples from every chunk.
	var sampled []*core.PageDesc
	i := 0
	st.WalkDescs(func(d *core.PageDesc) bool {
		if !d.IsLarge && d.Accessed && i%7 == 0 {
			sampled = append(sampled, d)
		}
		i++
		return true
	})
	if len(sampled) < 32 {
		t.Fatalf("sampled %d mapped pages of %d descriptors", len(sampled), st.DescCount())
	}
	same := func(when string) {
		t.Helper()
		for _, d := range sampled {
			if st.FindDesc(d.Lo) != d || st.DescByOID(d.Phys) != d {
				t.Fatalf("%s: page %v is found as %p by address and %p by OID, want %p",
					when, d.Phys, st.FindDesc(d.Lo), st.DescByOID(d.Phys), d)
			}
		}
	}
	read := func() [][]byte {
		t.Helper()
		if err := st.Begin(); err != nil {
			t.Fatal(err)
		}
		imgs := make([][]byte, len(sampled))
		for k, d := range sampled {
			imgs[k] = make([]byte, vmem.FrameSize)
			if err := st.Space().ReadInto(d.Lo, imgs[k]); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
		return imgs
	}
	same("after the cold T1")
	first := read()
	same("after a second transaction")

	st.Client().Pool().DropAll()
	faults := st.Space().Faults()
	again := read()
	if n := st.Space().Faults() - faults; n < int64(len(sampled)) {
		t.Fatalf("reading %d evicted pages took %d faults", len(sampled), n)
	}
	same("after the pages faulted back in")
	for k, d := range sampled {
		if !bytes.Equal(first[k], again[k]) {
			t.Errorf("page %v reads differently after faulting back in through its descriptor", d.Phys)
		}
	}
}
