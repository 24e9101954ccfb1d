package retention

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

func sampleManifest() *Manifest {
	return &Manifest{
		KeepIdx:       17,
		DecisionFloor: 31,
		Frontier:      42,
		Segments: []SegmentLiveness{
			{First: 1, Last: 16, LiveBlocks: 0},
			{First: 17, Last: 30, LiveBlocks: 6},
			{First: 31, Last: 42, LiveBlocks: 2},
		},
		Channels: map[string]ChannelManifest{
			"alpha": {
				Floor:  9,
				Anchor: cryptoutil.Hash([]byte("anchor-alpha")),
				Index:  []uint64{17, 19, 22, 23, 42},
			},
			"beta": {
				Floor: 0,
				Index: []uint64{18, 20, 21},
			},
			"rebased": {
				Floor:  100,
				Anchor: cryptoutil.Hash([]byte("anchor-rebased")),
			},
		},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	got, err := UnmarshalManifest(m.Marshal())
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.KeepIdx != m.KeepIdx || got.Frontier != m.Frontier || got.DecisionFloor != m.DecisionFloor {
		t.Fatalf("round trip = %+v", got)
	}
	if !reflect.DeepEqual(got.Segments, m.Segments) {
		t.Fatalf("segments = %+v, want %+v", got.Segments, m.Segments)
	}
	for name, want := range m.Channels {
		gotCh := got.Channels[name]
		if gotCh.Floor != want.Floor || gotCh.Anchor != want.Anchor {
			t.Fatalf("channel %q = %+v, want %+v", name, gotCh, want)
		}
		if len(want.Index) == 0 && len(gotCh.Index) == 0 {
			continue
		}
		if !reflect.DeepEqual(gotCh.Index, want.Index) {
			t.Fatalf("channel %q index = %v, want %v", name, gotCh.Index, want.Index)
		}
	}
}

func TestManifestSaveLoadAndCorruption(t *testing.T) {
	dir := t.TempDir()
	if _, found, err := LoadManifest(nil, dir); err != nil || found {
		t.Fatalf("empty load: found=%v err=%v", found, err)
	}
	m := sampleManifest()
	if err := SaveManifest(nil, dir, m); err != nil {
		t.Fatalf("save: %v", err)
	}
	// A stale temp file from an interrupted save is ignored.
	if err := os.WriteFile(filepath.Join(dir, ManifestFile+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, found, err := LoadManifest(nil, dir)
	if err != nil || !found || got.KeepIdx != m.KeepIdx {
		t.Fatalf("load: %+v found=%v err=%v", got, found, err)
	}
	// A flipped byte fails the CRC — with no previous generation to fall
	// back to, the typed corruption error surfaces.
	path := filepath.Join(dir, ManifestFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0xff
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadManifest(nil, dir); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("corrupt load: %v", err)
	}

	// A second save demotes the (restored) stable copy to .prev; rotting
	// the new stable copy then falls back to the previous generation
	// instead of failing recovery.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := sampleManifest()
	m2.KeepIdx = m.KeepIdx + 7
	if err := SaveManifest(nil, dir, m2); err != nil {
		t.Fatalf("second save: %v", err)
	}
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	prev, found, err := LoadManifest(nil, dir)
	if err != nil || !found {
		t.Fatalf("fallback load: found=%v err=%v", found, err)
	}
	if prev.KeepIdx != m.KeepIdx {
		t.Fatalf("fallback KeepIdx = %d, want the previous generation's %d", prev.KeepIdx, m.KeepIdx)
	}
}

func TestPolicyPlan(t *testing.T) {
	st := State{
		Channels: map[string]ChannelState{
			"big":   {Floor: 10, Height: 110}, // 100 retained
			"small": {Floor: 0, Height: 3},    // 3 retained
			"empty": {Floor: 0, Height: 0},
		},
		Bytes: 1000,
	}

	if (Policy{}).Enabled() {
		t.Fatal("zero policy must be disabled")
	}
	if (Policy{}).Plan(st) != nil {
		t.Fatal("zero policy planned a compaction")
	}

	// Count trigger: only channels over the bound move, down to the bound.
	p := Policy{RetainBlocks: 20}
	if !p.Due(st) {
		t.Fatal("count policy not due at 100 retained")
	}
	floors := p.Plan(st)
	if floors["big"] != 90 {
		t.Fatalf("big floor = %d, want 90", floors["big"])
	}
	if _, ok := floors["small"]; ok {
		t.Fatal("small channel under the bound was planned")
	}

	// Slack delays the trigger near the bound.
	nearly := State{Channels: map[string]ChannelState{"ch": {Floor: 0, Height: 21}}}
	if p.Due(nearly) {
		t.Fatal("due with only 1 block of overshoot despite slack")
	}

	// Bytes trigger: every channel halves its retained window, but at
	// least one block always stays.
	pb := Policy{RetainBytes: 500}
	floors = pb.Plan(st)
	if floors["big"] != 60 {
		t.Fatalf("bytes-trigger big floor = %d, want 60", floors["big"])
	}
	if floors["small"] != 1 {
		t.Fatalf("bytes-trigger small floor = %d, want 1", floors["small"])
	}
	if _, ok := floors["empty"]; ok {
		t.Fatal("empty channel was planned")
	}
	under := State{Channels: st.Channels, Bytes: 100}
	if pb.Due(under) {
		t.Fatal("bytes policy due under the cap")
	}
}

// stallStore's CompactTo blocks until release is closed, as a pass waiting
// out the block puts in flight does.
type stallStore struct {
	mu      sync.Mutex
	heights map[string]uint64
	floors  map[string]uint64
	applied []map[string]uint64
	entered chan struct{}
	release chan struct{}
}

func (s *stallStore) RetentionState() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := State{Channels: make(map[string]ChannelState)}
	for ch, h := range s.heights {
		st.Channels[ch] = ChannelState{Floor: s.floors[ch], Height: h}
	}
	return st
}

func (s *stallStore) CompactTo(floors map[string]uint64) (map[string]uint64, error) {
	s.entered <- struct{}{}
	<-s.release
	s.mu.Lock()
	defer s.mu.Unlock()
	for ch, f := range floors {
		s.floors[ch] = f
	}
	s.applied = append(s.applied, floors)
	return floors, nil
}

// A compaction that falls due while a pass runs is not dropped: the pass
// plans again when it is done, from the state it then finds.
func TestManagerReplansWhatFellDueDuringAPass(t *testing.T) {
	s := &stallStore{
		heights: map[string]uint64{"ch": 10},
		floors:  map[string]uint64{},
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	m := NewManager(s, Policy{RetainBlocks: 4}, nil)
	defer m.Close()

	m.MaybeCompact()
	<-s.entered // the first pass planned floor 6 and stalls
	s.mu.Lock()
	s.heights["ch"] = 20
	s.mu.Unlock()
	m.MaybeCompact() // due again while the pass runs
	close(s.release)
	select {
	case <-s.entered:
	case <-time.After(time.Second):
		t.Fatal("the compaction that fell due during a pass never ran")
	}
	m.Close()
	want := []map[string]uint64{{"ch": 6}, {"ch": 16}}
	if !reflect.DeepEqual(s.applied, want) {
		t.Fatalf("applied %v, want %v", s.applied, want)
	}
}

// TestPolicyWeightedBytesBudget exercises the weighted split of the
// RetainBytes budget: each channel is trimmed to its share of the budget
// (Weights[c]/Σw), channels within their share keep their whole window,
// and stores that don't account bytes per channel fall back to halving.
func TestPolicyWeightedBytesBudget(t *testing.T) {
	p := Policy{RetainBytes: 600, Weights: map[string]float64{"heavy": 2}}
	st := State{
		Channels: map[string]ChannelState{
			"heavy": {Floor: 0, Height: 100, Bytes: 900}, // avg 9 B/block
			"light": {Floor: 0, Height: 100, Bytes: 300}, // avg 3 B/block
		},
		Bytes: 1200,
	}
	// Σw = 2 + 1 = 3: heavy's share is 400, light's 200.
	floors := p.Plan(st)
	// heavy drops ceil((900-400)/9) = 56 blocks, light ceil((300-200)/3) = 34.
	if floors["heavy"] != 56 {
		t.Fatalf("heavy floor = %d, want 56", floors["heavy"])
	}
	if floors["light"] != 34 {
		t.Fatalf("light floor = %d, want 34", floors["light"])
	}

	// A channel already within its share keeps its whole window even while
	// the store total is over budget.
	st.Channels["light"] = ChannelState{Floor: 0, Height: 100, Bytes: 150}
	floors = p.Plan(st)
	if _, ok := floors["light"]; ok {
		t.Fatalf("light trimmed despite being within its share: %v", floors)
	}
	if floors["heavy"] == 0 {
		t.Fatal("heavy not trimmed")
	}

	// Unknown and non-positive weights mean 1.
	if (Policy{Weights: map[string]float64{"neg": -3}}).Weight("neg") != 1 {
		t.Fatal("non-positive weight not defaulted")
	}
	if (Policy{}).Weight("unlisted") != 1 {
		t.Fatal("unlisted weight not defaulted")
	}

	// No per-channel accounting (Bytes == 0): uniform halving fallback.
	legacy := State{
		Channels: map[string]ChannelState{"ch": {Floor: 10, Height: 110}},
		Bytes:    1200,
	}
	if floors := p.Plan(legacy); floors["ch"] != 60 {
		t.Fatalf("fallback floor = %d, want 60", floors["ch"])
	}

	// The trim never drops the chain head: a grossly over-budget channel
	// still retains one block.
	tiny := State{
		Channels: map[string]ChannelState{"ch": {Floor: 0, Height: 4, Bytes: 4000}},
		Bytes:    4000,
	}
	if floors := p.Plan(tiny); floors["ch"] != 3 {
		t.Fatalf("head not retained: floor = %d, want 3", floors["ch"])
	}
}

// TestSegmentLivenessDead spells out the two-condition rule the summary
// encodes: a segment is reclaimable only with zero live blocks AND its
// whole span behind the decision floor.
func TestSegmentLivenessDead(t *testing.T) {
	floor := uint64(31)
	cases := []struct {
		seg  SegmentLiveness
		dead bool
	}{
		{SegmentLiveness{First: 1, Last: 16, LiveBlocks: 0}, true},   // both conditions hold
		{SegmentLiveness{First: 17, Last: 30, LiveBlocks: 6}, false}, // live blocks pin it
		{SegmentLiveness{First: 31, Last: 42, LiveBlocks: 0}, false}, // live decisions pin it
		{SegmentLiveness{First: 25, Last: 40, LiveBlocks: 3}, false}, // both pin it
	}
	for _, tc := range cases {
		if got := tc.seg.Dead(floor); got != tc.dead {
			t.Fatalf("segment %+v: Dead(%d) = %v, want %v", tc.seg, floor, got, tc.dead)
		}
	}
}
