package trace

import (
	"bytes"
	"slices"
	"testing"

	"swift/internal/event"
	"swift/internal/mrt"
	"swift/internal/netaddr"
)

// captureSink records what an mrt.Source delivers: RIB routes through
// the Provisioner surface, update events through Apply.
type captureSink struct {
	rib         map[netaddr.Prefix][]uint32
	provisioned bool
	events      []event.Event
}

func (c *captureSink) Learn(_ event.PeerKey, p netaddr.Prefix, path []uint32) {
	if c.rib == nil {
		c.rib = make(map[netaddr.Prefix][]uint32)
	}
	c.rib[p] = slices.Clone(path) // the source recycles its decode buffers
}

func (c *captureSink) Provisioned(event.PeerKey) bool { return c.provisioned }

func (c *captureSink) Provision(event.PeerKey) error {
	c.provisioned = true
	return nil
}

func (c *captureSink) Apply(b event.Batch) error {
	c.events = append(c.events, b...)
	return nil
}

func TestMRTRoundTripRIB(t *testing.T) {
	ds := Generate(smallConfig(21))
	s := ds.Sessions[0]

	var buf bytes.Buffer
	written, err := ds.WriteSessionRIB(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	if written == 0 {
		t.Fatal("empty RIB")
	}
	var sink captureSink
	src := &mrt.Source{
		RIB:     bytes.NewReader(buf.Bytes()),
		Updates: bytes.NewReader(nil),
		Peer:    event.PeerKey{AS: s.Neighbor, BGPID: s.Neighbor},
	}
	if err := src.Run(&sink); err != nil {
		t.Fatal(err)
	}
	if src.Routes != written || len(sink.rib) != written {
		t.Fatalf("read %d routes (%d prefixes), wrote %d", src.Routes, len(sink.rib), written)
	}
	if !sink.provisioned {
		t.Error("RIB load did not provision the peer")
	}
	for origin, path := range ds.SessionRIB(s) {
		for i := 0; i < ds.Net.Origins[origin]; i++ {
			p := netaddr.PrefixFor(origin, i)
			if got, ok := sink.rib[p]; !ok || !slices.Equal(got, path) {
				t.Fatalf("prefix %v: round trip gave %v (present %v), want %v", p, got, ok, path)
			}
		}
	}
}

// TestWriteSessionRIBDeterministic pins the dump's byte order: two
// dumps of one session from one dataset must be identical, so archives
// generated with the same seed compare equal.
func TestWriteSessionRIBDeterministic(t *testing.T) {
	ds := Generate(smallConfig(21))
	s := ds.Sessions[0]
	var a, b bytes.Buffer
	if _, err := ds.WriteSessionRIB(&a, s); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.WriteSessionRIB(&b, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two dumps of the same session RIB differ")
	}
}

func TestMRTRoundTripUpdates(t *testing.T) {
	ds := Generate(smallConfig(23))
	// Find a session with bursts.
	census := ds.Census(200)
	if len(census) == 0 {
		t.Skip("no bursts at this scale")
	}
	s := census[0].Session

	var buf bytes.Buffer
	records, bursts, err := ds.WriteSessionUpdates(&buf, s, 200)
	if err != nil {
		t.Fatal(err)
	}
	if bursts == 0 || records == 0 {
		t.Fatalf("bursts=%d records=%d", bursts, records)
	}

	var sink captureSink
	src := &mrt.Source{Updates: bytes.NewReader(buf.Bytes()), Epoch: Epoch}
	if err := src.Run(&sink); err != nil {
		t.Fatal(err)
	}
	var withdrawals, announces int
	for _, ev := range sink.events {
		switch ev.Kind {
		case event.KindWithdraw:
			withdrawals++
		case event.KindAnnounce:
			announces++
			if len(ev.Path) == 0 {
				t.Error("announcement without AS path")
			}
		}
		if want := (event.PeerKey{AS: s.Neighbor, BGPID: 0x0a000001}); ev.Peer != want {
			t.Fatalf("event attributed to %v, want %v", ev.Peer, want)
		}
	}
	if src.Events != withdrawals+announces {
		t.Fatalf("event count mismatch: %d vs %d", src.Events, withdrawals+announces)
	}
	// The file must contain each burst's withdrawals.
	expected := 0
	for _, st := range ds.Census(200) {
		if st.Session == s {
			expected += st.Withdrawals
		}
	}
	if withdrawals != expected {
		t.Errorf("withdrawals = %d, census says %d", withdrawals, expected)
	}
}
