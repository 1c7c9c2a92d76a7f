package serve

// Position expansion for the shard tier: a Game's Expand names the
// children of a position *as canonical position strings*, in exactly the
// order the game's Moves() generates them. The coordinator expands the
// root a bounded number of plies, ships the frontier to workers as
// independent (position, depth) tasks, and folds the results back up
// with the negamax rule — so move-index answers (Result.Best) stay
// byte-identical to a sequential search, which requires the expansion
// order to match Moves() exactly: the board-game expanders walk the
// game's own successor list and name each successor, and the test suite
// cross-checks every registered expander against the parser and Moves()
// for that game.

import (
	"fmt"
	"strconv"

	"gametree/internal/engine"
	"gametree/internal/games"
)

// Expand applies a game's registered expander: the canonical child
// position strings of a canonical position (as returned by ParsePosition),
// in Moves() order. Terminal positions return an empty slice.
func Expand(game, position string) ([]string, error) {
	g, err := lookupGame(game)
	if err != nil {
		return nil, err
	}
	if g.Expand == nil {
		return nil, fmt.Errorf("game %q has no expander", game)
	}
	return g.Expand(position)
}

// expandTTT renders each successor board: ascending cell order, mover's
// mark placed, no children once somebody has three in a row.
func expandTTT(position string) ([]string, error) {
	pos, _, err := parseTTTPosition(position)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, m := range pos.Moves() {
		out = append(out, tttCanon(m.(games.TTT)))
	}
	return out, nil
}

// expandConnect4 names each successor by the parent move string plus the
// column it dropped in: center column first, then alternating outward,
// skipping full columns; no children after a win.
func expandConnect4(position string) ([]string, error) {
	pos, canon, err := parseConnect4Position(position)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, m := range pos.(engine.Node[games.Connect4]).Pos.Children(nil) {
		out = append(out, canon+strconv.Itoa(int(m.LastCol)))
	}
	return out, nil
}

// expandRandom names the synthetic tree's children by their derived
// seeds. The tree is infinite, so there are no terminal positions; the
// search horizon alone bounds the game.
func expandRandom(position string) ([]string, error) {
	pos, _, err := parseRandomPosition(position)
	if err != nil {
		return nil, err
	}
	p := pos.(engine.Node[games.RandomTree]).Pos
	out := make([]string, p.Branch)
	for i := range out {
		c := p.Child(i)
		out[i] = fmt.Sprintf("%d:%d", c.Seed, c.Branch)
	}
	return out, nil
}
