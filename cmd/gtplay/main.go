// Command gtplay plays tic-tac-toe or Connect-4 against the parallel
// game-tree engine, the practical face of the paper's algorithms.
//
// Usage:
//
//	gtplay -game ttt
//	gtplay -game connect4 -depth 9 -workers 8
//	gtplay -game connect4 -selfplay       # engine vs engine
//	gtplay -game connect4 -selfplay -telemetry trace.json
//	                                      # + counters on exit, Chrome trace
//	gtplay -game connect4 -selfplay -events events.jsonl
//	                                      # + structured scheduler event log
//	                                      # (replay: gttrace -events ...)
//	gtplay -pprof localhost:6060 ...      # live pprof/expvar//metrics while
//	                                      # playing
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gametree"
	"gametree/internal/games"
	"gametree/internal/telemetry"
)

func main() {
	var (
		game         = flag.String("game", "ttt", "ttt, connect4, nim, kayles or domineering")
		depth        = flag.Int("depth", 9, "search depth")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers")
		selfplay     = flag.Bool("selfplay", false, "engine plays both sides")
		telemetryOut = flag.String("telemetry", "", "record search telemetry across the game; write a Chrome trace_event file here and print the counter report on exit")
		eventsOut    = flag.String("events", "", "record scheduler events (split-open/join/abort/steal) across the game; write a JSONL log here on exit")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof, expvar and Prometheus /metrics on this address (e.g. localhost:6060) while playing")
	)
	flag.Parse()

	// One recorder spans the whole game: every engine move accumulates
	// into the same counters, so the exit report covers the session.
	var rec *gametree.TelemetryRecorder
	if *telemetryOut != "" || *eventsOut != "" || *pprofAddr != "" {
		rec = gametree.NewTelemetryRecorder()
	}
	if *telemetryOut != "" {
		rec.EnableTrace(0)
	}
	if *eventsOut != "" {
		rec.EnableEvents(0)
	}
	if *pprofAddr != "" {
		expvar.Publish("gtplay_telemetry", expvar.Func(func() any {
			return rec.Snapshot().Report()
		}))
		http.Handle("/metrics", telemetry.PromHandler(rec))
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "gtplay: pprof server:", err)
			}
		}()
		fmt.Printf("pprof/expvar/metrics listening on http://%s/debug/pprof/\n", *pprofAddr)
	}

	var err error
	switch *game {
	case "ttt":
		err = playTTT(*depth, *workers, *selfplay, rec, os.Stdin, os.Stdout)
	case "connect4":
		err = playConnect4(*depth, *workers, *selfplay, rec, os.Stdin, os.Stdout)
	case "nim":
		err = selfplayGame(games.NewNim(3, 5, 7), *workers, rec, os.Stdout)
	case "kayles":
		err = selfplayGame(games.NewKayles(9), *workers, rec, os.Stdout)
	case "domineering":
		err = selfplayGame(gametree.NewDomineering(4, 4), *workers, rec, os.Stdout)
	default:
		err = fmt.Errorf("unknown game %q", *game)
	}
	if err == nil && *telemetryOut != "" {
		err = dumpTelemetry(rec, *telemetryOut)
	}
	if err == nil && *eventsOut != "" {
		err = dumpEvents(rec, *eventsOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtplay:", err)
		os.Exit(1)
	}
}

// dumpEvents writes the session's scheduler event log as JSONL, one
// event per line (replayable with gttrace -events).
func dumpEvents(rec *gametree.TelemetryRecorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteEvents(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	events, dropped := rec.Events()
	if dropped > 0 {
		fmt.Printf("wrote event log %s (%d events, %d dropped past the buffer cap)\n", path, len(events), dropped)
	} else {
		fmt.Printf("wrote event log %s (%d events)\n", path, len(events))
	}
	return nil
}

// dumpTelemetry prints the session's counter report and writes the
// recorded split-point spans as a Chrome trace_event file.
func dumpTelemetry(rec *gametree.TelemetryRecorder, path string) error {
	report, err := json.MarshalIndent(rec.Snapshot().Report(), "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("telemetry: %s\n", report)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote trace %s\n", path)
	return nil
}

// selfplayGame runs an engine-vs-engine game to completion on any
// Position with a String method, printing each move. The search depth is
// unbounded enough to play these small games perfectly.
func selfplayGame(start gametree.Position, workers int, rec *gametree.TelemetryRecorder, outF *os.File) error {
	out := bufio.NewWriter(outF)
	defer out.Flush()
	pos := start
	for moveNo := 1; ; moveNo++ {
		moves := pos.Moves()
		if len(moves) == 0 {
			fmt.Fprintf(out, "\nplayer to move has no moves after %d plies - they lose\n", moveNo-1)
			return nil
		}
		r, err := gametree.SearchOpt(context.Background(), pos, 40,
			gametree.EngineOptions{Workers: workers, Telemetry: rec})
		if err != nil {
			return err
		}
		pos = moves[r.Best]
		fmt.Fprintf(out, "move %2d -> %v (value %d, %d nodes)\n", moveNo, pos, r.Value, r.Nodes)
		if moveNo > 200 {
			return fmt.Errorf("game did not terminate")
		}
	}
}

func engineMove(pos gametree.Position, depth, workers int, rec *gametree.TelemetryRecorder, out *bufio.Writer) (int, error) {
	start := time.Now()
	r, err := gametree.SearchOpt(context.Background(), pos, depth,
		gametree.EngineOptions{Workers: workers, Telemetry: rec})
	if err != nil {
		return -1, err
	}
	fmt.Fprintf(out, "engine: move %d (value %d, %d nodes, %s)\n",
		r.Best, r.Value, r.Nodes, time.Since(start).Round(time.Millisecond))
	return r.Best, nil
}

func playTTT(depth, workers int, selfplay bool, rec *gametree.TelemetryRecorder, in *os.File, outF *os.File) error {
	out := bufio.NewWriter(outF)
	defer out.Flush()
	sc := bufio.NewScanner(in)
	pos := games.TTT{}
	human := int8(1) // X
	if selfplay {
		human = -1 // matches no player (TTT's zero-value ToMove aliases X)
	}
	for {
		fmt.Fprintf(out, "\n%s\n", pos)
		moves := pos.Moves()
		if len(moves) == 0 {
			return announceTTT(pos, out)
		}
		var idx int
		if pos.ToMove == human || (human == 1 && pos.ToMove == 0) {
			out.Flush()
			fmt.Fprint(out, "your move (cell 0-8): ")
			out.Flush()
			if !sc.Scan() {
				return nil
			}
			cell, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
			if err != nil || cell < 0 || cell > 8 || pos.Cells[cell] != 0 {
				fmt.Fprintln(out, "illegal move")
				continue
			}
			idx = -1
			for i, m := range moves {
				if pos.MoveCell(m.(games.TTT)) == cell {
					idx = i
					break
				}
			}
			if idx < 0 {
				fmt.Fprintln(out, "illegal move")
				continue
			}
		} else {
			var err error
			idx, err = engineMove(pos, depth, workers, rec, out)
			if err != nil {
				return err
			}
		}
		pos = moves[idx].(games.TTT)
	}
}

func announceTTT(pos games.TTT, out *bufio.Writer) error {
	switch pos.Winner() {
	case 1:
		fmt.Fprintln(out, "X wins")
	case 2:
		fmt.Fprintln(out, "O wins")
	default:
		fmt.Fprintln(out, "draw")
	}
	return nil
}

func playConnect4(depth, workers int, selfplay bool, rec *gametree.TelemetryRecorder, in *os.File, outF *os.File) error {
	out := bufio.NewWriter(outF)
	defer out.Flush()
	sc := bufio.NewScanner(in)
	pos := games.StandardConnect4()
	for moveNo := 0; ; moveNo++ {
		fmt.Fprintf(out, "\n%s\n", pos)
		moves := pos.Moves()
		if len(moves) == 0 || pos.Full() {
			if len(moves) == 0 && moveNo > 0 {
				fmt.Fprintf(out, "player %d wins\n", 3-pos.Mover)
			} else {
				fmt.Fprintln(out, "draw")
			}
			return nil
		}
		humanTurn := !selfplay && pos.Mover == 1
		var idx int
		if humanTurn {
			fmt.Fprintf(out, "your move (column 0-%d): ", pos.W-1)
			out.Flush()
			if !sc.Scan() {
				return nil
			}
			col, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
			if err != nil {
				fmt.Fprintln(out, "illegal move")
				moveNo--
				continue
			}
			idx = -1
			for i, m := range moves {
				if int(m.(*games.Connect4).LastCol) == col {
					idx = i
					break
				}
			}
			if idx < 0 {
				fmt.Fprintln(out, "illegal move")
				moveNo--
				continue
			}
		} else {
			var err error
			idx, err = engineMove(pos, depth, workers, rec, out)
			if err != nil {
				return err
			}
		}
		pos = moves[idx].(*games.Connect4)
	}
}
