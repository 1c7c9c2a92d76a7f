package gametree

import (
	"gametree/internal/games"
)

// This file re-exports the game substrates: concrete Position
// implementations for the engine (tic-tac-toe, Connect-4, Nim) and the
// Horn-clause prover behind the paper's theorem-proving motivation.

// TicTacToe is a tic-tac-toe position; the zero value is the empty board
// with X to move. It implements Position.
type TicTacToe = games.TTT

// ParseTicTacToe parses a 9-character board like "XOX.O..X.".
func ParseTicTacToe(s string) (TicTacToe, error) { return games.ParseTTT(s) }

// Connect4 is a connect-four position on a parametric board, a bitboard
// value. *Connect4 implements Position; the service searches the value
// itself, without allocating.
type Connect4 = games.Connect4

// NewConnect4 returns an empty w-by-h board needing `need` in a row.
func NewConnect4(w, h, need int) *Connect4 { return games.NewConnect4(w, h, need) }

// StandardConnect4 returns the classic 7x6, four-in-a-row board.
func StandardConnect4() *Connect4 { return games.StandardConnect4() }

// Nim is a normal-play Nim position; its exact value is known in closed
// form (the xor rule), making it a correctness oracle for the engine. It
// implements Position.
type Nim = games.Nim

// NewNim returns a Nim position with the given heap sizes.
func NewNim(heaps ...int) Nim { return games.NewNim(heaps...) }

// HornRule is a definite Horn clause Head :- Body...; empty Body is a fact.
type HornRule = games.Rule

// HornKB is a propositional Horn knowledge base whose backward-chaining
// search space is an AND/OR tree (Section 1's theorem-proving motivation).
type HornKB = games.KB

// NewHornKB builds a knowledge base, rejecting cyclic rule sets.
func NewHornKB(rules []HornRule) (*HornKB, error) { return games.NewKB(rules) }

// LayeredHornKB generates a synthetic layered knowledge base whose proof
// search space is a near-uniform AND/OR tree; returns the KB and the top
// goal.
func LayeredHornKB(layers, atomsPer, rulesPer, bodyLen int, factBias float64, seed int64) (*HornKB, string) {
	return games.LayeredKB(layers, atomsPer, rulesPer, bodyLen, factBias, seed)
}

// Domineering is the classic combinatorial game on a grid (Vertical vs
// Horizontal dominoes, last player to move wins). It implements Position
// and Hasher.
type Domineering = games.Domineering

// NewDomineering returns an empty w-by-h Domineering board with Vertical
// to move.
func NewDomineering(w, h int) *Domineering { return games.NewDomineering(w, h) }

// Kayles is the octal game 0.77 (knock one pin or two adjacent pins);
// its Sprague-Grundy values are eventually periodic, giving a closed-form
// oracle. It implements Position and Hasher.
type Kayles = games.Kayles

// NewKayles returns a Kayles position with the given row lengths.
func NewKayles(rows ...int) Kayles { return games.NewKayles(rows...) }

// RandomGameTree is a lazy deterministic synthetic game tree: node
// identities and leaf values are pure functions of a 64-bit seed, so a
// position is fully described by (seed, branch) — the serving-layer
// benchmark workload. It implements Position, Hasher and MoveAppender;
// like Connect4, the service searches the value itself. No two move
// sequences reach the same node, so it never transposes and a search of
// it leaves any transposition table untouched: the drivers
// (SearchIterative, MTDF, SearchPVS) run on it without a table's move
// ordering or bounds.
type RandomGameTree = games.RandomTree

// NewRandomGameTree returns the root of the synthetic tree for seed with
// the given branching factor (clamped to [2, 16]).
func NewRandomGameTree(seed uint64, branch int) RandomGameTree {
	return games.NewRandomTree(seed, branch)
}
