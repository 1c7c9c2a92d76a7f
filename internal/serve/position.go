package serve

// Request positions arrive as (game, position) string pairs and must map
// to an engine.Position plus a canonical cache key. The key doubles as
// the singleflight identity, so two requests coalesce exactly when their
// canonical keys (and depth) match.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"gametree/internal/engine"
	"gametree/internal/games"
)

// Game is one registered game: Parse maps a request's position string to
// an engine Position and its canonical form (the position part of the
// cache/coalescing key); Expand, for the shard tier, names the children of
// a canonical position — see expand.go. A game with a nil Expand is still
// served, just not sharded at the root.
type Game struct {
	Parse  func(position string) (engine.Position, string, error)
	Expand func(position string) ([]string, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Game{
		"ttt":      {parseTTTPosition, expandTTT},
		"connect4": {parseConnect4Position, expandConnect4},
		"random":   {parseRandomPosition, expandRandom},
		"nim":      {Parse: parseNimPosition},
		"kayles":   {Parse: parseKaylesPosition},
	}
)

// RegisterGame adds (or replaces) a game. Tests use it to inject
// controllable positions; embedders can use it to serve their own games.
func RegisterGame(name string, g Game) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = g
}

func lookupGame(name string) (Game, error) {
	registryMu.RLock()
	g, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return Game{}, fmt.Errorf("unknown game %q (want ttt, connect4, random, nim or kayles)", name)
	}
	return g, nil
}

// ParsePosition resolves a request's (game, position) pair. The returned
// key is "<game>|<canonical position>", unique across games.
func ParsePosition(game, position string) (engine.Position, string, error) {
	g, err := lookupGame(game)
	if err != nil {
		return nil, "", err
	}
	pos, canon, err := g.Parse(position)
	if err != nil {
		return nil, "", fmt.Errorf("game %s: %w", game, err)
	}
	return pos, game + "|" + canon, nil
}

// parseTTTPosition accepts the 9-character board form of games.ParseTTT
// ("XOX.O..X.", row-major); "" is the empty board. The canonical form is
// the board re-rendered from the parsed cells, so case variants and the
// separators ParseTTT skips coalesce.
func parseTTTPosition(position string) (engine.Position, string, error) {
	if position == "" {
		position = "........."
	}
	p, err := games.ParseTTT(position)
	if err != nil {
		return nil, "", err
	}
	return p, tttCanon(p), nil
}

func tttCanon(p games.TTT) string {
	var b [9]byte
	for i, c := range p.Cells {
		b[i] = ".XO"[c]
	}
	return string(b[:])
}

// parseConnect4Position accepts a sequence of 0-based column digits
// played from the standard 7x6 board ("334" = center, center, col 4); ""
// is the empty board, and the position is served as an engine.Node, which
// the search body expands without allocating. The move string itself is
// the canonical form: transposed move orders reaching the same grid get
// distinct keys and rely on the shared transposition table, not the
// result cache. A move after a completed four-in-a-row is rejected: the
// game cannot reach that grid, and a search of it would treat a decided
// game as live.
func parseConnect4Position(position string) (engine.Position, string, error) {
	p := games.StandardConnect4()
	for i, r := range position {
		if r < '0' || r > '9' {
			return nil, "", fmt.Errorf("move %d: column %q is not a digit", i, string(r))
		}
		if p.Won() {
			return nil, "", fmt.Errorf("move %d: game already won", i)
		}
		next := p.Drop(int(r - '0'))
		if next == nil {
			return nil, "", fmt.Errorf("move %d: column %c is full or out of range", i, r)
		}
		p = next
	}
	return engine.NewNode(*p), position, nil
}

// parseIntList accepts comma- or space-separated non-negative decimals
// ("3,5,7" or "3 5 7"), the shared syntax of the nim and kayles
// positions. The canonical form sorts them ascending and drops zero
// entries, so permutations (and empty heaps) coalesce — the game values
// are symmetric in both.
func parseIntList(position, what string, max int) ([]int, string, error) {
	fields := strings.FieldsFunc(position, func(r rune) bool { return r == ',' || r == ' ' })
	if len(fields) == 0 {
		return nil, "", fmt.Errorf("empty %s position", what)
	}
	vals := make([]int, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, "", fmt.Errorf("%s %q: %w", what, f, err)
		}
		if v < 0 || v > max {
			return nil, "", fmt.Errorf("%s %d out of range [0, %d]", what, v, max)
		}
		if v > 0 {
			vals = append(vals, v)
		}
	}
	sort.Ints(vals)
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.Itoa(v)
	}
	canon := strings.Join(parts, ",")
	if canon == "" {
		canon = "0"
	}
	return vals, canon, nil
}

// parseNimPosition accepts Nim heap sizes ("3,5,7"); heaps are capped so
// a request cannot pose an astronomically wide tree.
func parseNimPosition(position string) (engine.Position, string, error) {
	heaps, canon, err := parseIntList(position, "heap", 64)
	if err != nil {
		return nil, "", err
	}
	return games.NewNim(heaps...), canon, nil
}

// parseKaylesPosition accepts Kayles row lengths ("5,6").
func parseKaylesPosition(position string) (engine.Position, string, error) {
	rows, canon, err := parseIntList(position, "row", 64)
	if err != nil {
		return nil, "", err
	}
	return games.NewKayles(rows...), canon, nil
}

// parseRandomPosition accepts "seed" or "seed:branch" (decimal, branch
// defaults to 5) naming a games.RandomTree root, served as an engine.Node.
// The canonical form re-renders both numbers, so leading zeros coalesce.
func parseRandomPosition(position string) (engine.Position, string, error) {
	seedStr, branchStr, hasBranch := strings.Cut(position, ":")
	seed, err := strconv.ParseUint(seedStr, 10, 64)
	if err != nil {
		return nil, "", fmt.Errorf("seed %q: %w", seedStr, err)
	}
	branch := 5
	if hasBranch {
		b, err := strconv.Atoi(branchStr)
		if err != nil {
			return nil, "", fmt.Errorf("branch %q: %w", branchStr, err)
		}
		branch = b
	}
	p := games.NewRandomTree(seed, branch)
	return engine.NewNode(p), fmt.Sprintf("%d:%d", p.Seed, p.Branch), nil
}
