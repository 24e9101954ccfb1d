package sharding

import "testing"

func TestMapRouteDeterministic(t *testing.T) {
	a := Map{Shards: []ShardID{0, 1, 2}}
	b := Map{Shards: []ShardID{2, 1, 0}} // same set, scrambled order
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	channels := []string{"payments", "audit", "telemetry", "ch-0", "ch-1", "ch-2", "ch-3"}
	spread := make(map[ShardID]bool)
	for _, ch := range channels {
		s1, ok := a.Route(ch)
		if !ok {
			t.Fatalf("channel %q not routed", ch)
		}
		s2, _ := a.Route(ch)
		if s1 != s2 {
			t.Fatalf("channel %q routed to %d then %d", ch, s1, s2)
		}
		if s3, _ := b.Route(ch); s3 != s1 {
			t.Fatalf("channel %q routed to %d by one map, %d by an equal map", ch, s1, s3)
		}
		if !a.HasShard(s1) {
			t.Fatalf("channel %q routed outside the shard set: %d", ch, s1)
		}
		spread[s1] = true
	}
	if len(spread) < 2 {
		t.Fatalf("hash default sent every sample channel to one shard: %v", spread)
	}
}

func TestMapExplicitAssignmentWins(t *testing.T) {
	m := Map{Shards: []ShardID{0, 1}, Channels: map[string]ShardID{"pinned": 1}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	s, ok := m.Route("pinned")
	if !ok || s != 1 {
		t.Fatalf("explicit assignment ignored: got shard %d ok=%v", s, ok)
	}
}

func TestMapStrictRejectsUnassigned(t *testing.T) {
	m := Map{Shards: []ShardID{0, 1}, Strict: true, Channels: map[string]ShardID{"known": 0}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if s, ok := m.Route("known"); !ok || s != 0 {
		t.Fatalf("assigned channel rejected: shard %d ok=%v", s, ok)
	}
	if _, ok := m.Route("ghost"); ok {
		t.Fatal("strict map routed an unassigned channel")
	}
}

func TestMapValidate(t *testing.T) {
	bad := []Map{
		{},                        // no shards
		{Shards: []ShardID{0, 0}}, // duplicate
		{Shards: []ShardID{-1}},   // negative
		{Shards: []ShardID{0}, Channels: map[string]ShardID{"c": 3}}, // unknown shard
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid map validated", i)
		}
	}
}

func TestParseMap(t *testing.T) {
	m, err := ParseMap([]byte(`{"shards":[1,0],"channels":{"payments":1},"strict":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 2 || m.Shards[0] != 0 || m.Shards[1] != 1 {
		t.Fatalf("shards not normalized: %v", m.Shards)
	}
	if s, ok := m.Route("payments"); !ok || s != 1 {
		t.Fatalf("payments routed to %d ok=%v", s, ok)
	}
	if _, err := ParseMap([]byte(`{"shards":[]}`)); err == nil {
		t.Fatal("empty shard set parsed")
	}
	if _, err := ParseMap([]byte(`not json`)); err == nil {
		t.Fatal("garbage parsed")
	}
}
