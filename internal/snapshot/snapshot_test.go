package snapshot

import (
	"bytes"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"swift/internal/event"
	"swift/internal/netaddr"
	"swift/internal/rib"
	"swift/internal/swift"
	"swift/internal/topology"
)

// testImage builds a small but fully populated fleet image from a real
// engine: provisioned scheme and FIB, alternates, and a shared pool.
func testImage(t testing.TB) *FleetImage {
	pool := rib.NewPool()
	cfg := swift.Config{LocalAS: 1, PrimaryNeighbor: 2, Pool: pool}
	cfg.Encoding.MinPrefixes = 4
	eng := swift.New(cfg)
	for i := 0; i < 32; i++ {
		p := netaddr.PrefixFor(8, i)
		eng.LearnPrimary(p, []uint32{2, 5 + uint32(i%3), 6})
		eng.LearnAlternate(3, p, []uint32{3, 6})
	}
	if err := eng.Provision(); err != nil {
		t.Fatal(err)
	}
	return &FleetImage{
		Pool: pool.Export(),
		Peers: []PeerImage{
			{Key: event.PeerKey{AS: 2, BGPID: 9}, State: eng.ExportState()},
		},
	}
}

func TestWireRoundTrip(t *testing.T) {
	img := testImage(t)
	var buf bytes.Buffer
	if err := Write(&buf, img); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Peers) != 1 || got.Peers[0].Key != img.Peers[0].Key {
		t.Fatalf("peers round-tripped wrong: %+v", got.Peers)
	}
	if len(got.Pool.Paths) != len(img.Pool.Paths) || len(got.Pool.Links) != len(img.Pool.Links) {
		t.Fatalf("pool %d paths/%d links, want %d/%d",
			len(got.Pool.Paths), len(got.Pool.Links), len(img.Pool.Paths), len(img.Pool.Links))
	}
	if len(got.Peers[0].State.Table.Routes) != 32 {
		t.Fatalf("table routes %d, want 32", len(got.Peers[0].State.Table.Routes))
	}
	if got.Peers[0].State.Scheme == nil || got.Peers[0].State.Plan == nil {
		t.Fatal("provisioned scheme/plan lost in round trip")
	}
	var buf2 bytes.Buffer
	if err := Write(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-serialization differs: %d vs %d bytes", buf.Len(), buf2.Len())
	}
}

func TestWireRejectsCorruption(t *testing.T) {
	img := testImage(t)
	var buf bytes.Buffer
	if err := Write(&buf, img); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Every single-byte flip must be caught — by a structural check or,
	// failing that, the trailing CRC.
	for _, off := range []int{0, 5, len(magic), len(magic) + 2, len(good) / 3, len(good) / 2, len(good) - 2} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x20
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Errorf("flip at offset %d accepted", off)
		}
	}
	for _, cut := range []int{1, 4, len(good) / 2, len(good) - 1} {
		if _, err := Read(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
}

// section assembles magic+version plus raw (kind, payload) pairs with a
// valid trailing checksum, for structural-error tests.
func rawStream(sections ...[2]any) []byte {
	var e enc
	b := []byte(magic)
	e.u32(Version)
	b = append(b, e.take()...)
	for _, s := range sections {
		kind, payload := s[0].(uint32), s[1].([]byte)
		var h enc
		h.u32(kind)
		h.u64(uint64(len(payload)))
		b = append(b, h.take()...)
		b = append(b, payload...)
	}
	var h enc
	h.u32(secEnd)
	h.u64(4)
	b = append(b, h.take()...)
	var tail enc
	tail.u32(crc32.ChecksumIEEE(b))
	return append(b, tail.take()...)
}

func TestWireStructuralErrors(t *testing.T) {
	emptyPool := func() []byte {
		var e enc
		e.u64(1) // one link: the reserved zero entry
		e.link(topology.Link{})
		e.u64(0) // no paths
		return e.take()
	}
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"bad magic", append([]byte("NOTASNAP"), rawStream()[8:]...), "magic"},
		{"peer before pool", rawStream([2]any{secPeer, []byte{}}), "before pool"},
		{"duplicate pool", rawStream([2]any{secPool, emptyPool()}, [2]any{secPool, emptyPool()}), "duplicate"},
		{"unknown section", rawStream([2]any{uint32(77), []byte{}}), "unknown section"},
		{"no pool", rawStream(), "no pool"},
		{"trailing bytes", rawStream([2]any{secPool, append(emptyPool(), 0)}), "trailing"},
	}
	for _, tc := range cases {
		_, err := Read(bytes.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestReadBoundsSectionAllocation feeds Read a 24-byte file — magic,
// version and a pool section header declaring 2^33 payload bytes that
// never arrive. Read must report the truncation without first
// allocating the declared length.
func TestReadBoundsSectionAllocation(t *testing.T) {
	var e enc
	e.u32(Version)
	e.u32(secPool)
	e.u64(1 << 33)
	in := append([]byte(magic), e.take()...)
	if len(in) != 24 {
		t.Fatalf("fixture is %d bytes, want 24", len(in))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "payload") {
		t.Fatalf("Read = %v, want a section payload error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*maxPrealloc {
		t.Errorf("Read allocated %d bytes for a 24-byte file", got)
	}
}
