package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"gametree/internal/tree"
)

func TestPVSMatchesNegamax(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		depth := 1 + rng.Intn(6)
		pos := Arena(RandomArena(rng.Int63(), depth, 4))
		plain := Search(pos, depth)
		pvs, err := SearchPVS(context.Background(), pos, depth, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if pvs.Value != plain.Value {
			t.Fatalf("trial %d: PVS %d != negamax %d", trial, pvs.Value, plain.Value)
		}
	}
}

func TestPVSWithTableMatchesOnTreeGames(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		depth := 3 + rng.Intn(3)
		pos := Keyed(RandomArena(rng.Int63(), depth, 3), 0)
		plain := Search(pos, depth)
		pvs, err := SearchPVS(context.Background(), pos, depth, SearchOptions{Table: NewTable(1 << 12)})
		if err != nil {
			t.Fatal(err)
		}
		if pvs.Value != plain.Value {
			t.Fatalf("trial %d: PVS+TT %d != negamax %d", trial, pvs.Value, plain.Value)
		}
	}
}

// On a position with reasonable move ordering the null-window tests pay:
// PVS should not blow up the node count relative to plain alpha-beta.
func TestPVSNodeEconomy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var plainTotal, pvsTotal int64
	for trial := 0; trial < 20; trial++ {
		depth := 5
		pos := Arena(RandomArena(rng.Int63(), depth, 4))
		plainTotal += Search(pos, depth).Nodes
		pvs, err := SearchPVS(context.Background(), pos, depth, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pvsTotal += pvs.Nodes
	}
	if pvsTotal > 2*plainTotal {
		t.Errorf("PVS visited %d nodes vs plain %d (blow-up)", pvsTotal, plainTotal)
	}
}

func TestPVSTerminalAndHorizon(t *testing.T) {
	leaf := Arena(tree.FromNested(tree.MinMax, -4))
	if r, err := SearchPVS(context.Background(), leaf, 3, SearchOptions{}); err != nil || r.Value != -4 || r.Best != -1 {
		t.Errorf("terminal: %+v (err %v)", r, err)
	}
	deep := Arena(RandomArena(4, 3, 3))
	if r, err := SearchPVS(context.Background(), deep, 0, SearchOptions{}); err != nil || r.Value != deep.Evaluate() {
		t.Errorf("horizon: %+v (err %v)", r, err)
	}
}

// TestPVSCancellation pins that SearchPVS honours its context — the bug
// this guards against was a hardcoded context.Background() that made PVS
// the only search in the package immune to cancellation.
func TestPVSCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pos := Arena(RandomArena(9, 10, 3))
	r, err := SearchPVS(ctx, pos, 10, SearchOptions{})
	if err != ErrCancelled {
		t.Fatalf("pre-cancelled ctx: want ErrCancelled, got %v (result %+v)", err, r)
	}

	// A timeout mid-search must unwind within the checkMask poll budget,
	// not run the full tree.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	big := Arena(RandomArena(10, 14, 4))
	start := time.Now()
	if _, err := SearchPVS(ctx2, big, 14, SearchOptions{}); !errors.Is(err, ErrCancelled) {
		t.Fatalf("timeout: want ErrCancelled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, poll budget ignored", elapsed)
	}
}
