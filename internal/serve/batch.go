package serve

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
)

// expandQueryLines expands aptdep -batch lines against an analysis result,
// remembering which line each core.Query came from.  Blank lines and '#'
// comments are skipped (their indices simply never appear).
func expandQueryLines(lines []string, res *analysis.Result) ([]core.Query, []int, error) {
	var (
		queries []core.Query
		origins []int
	)
	for n, line := range lines {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		var (
			qs  []core.Query
			err error
		)
		switch {
		case fields[0] == "between" && len(fields) == 3:
			qs, err = res.QueriesBetween(fields[1], fields[2])
		case fields[0] == "cross" && len(fields) == 3:
			qs, err = res.LoopCarriedBetween(fields[1], fields[2])
		case fields[0] == "loop" && len(fields) == 2:
			qs, err = res.LoopCarriedQueries(fields[1])
		default:
			return nil, nil, fmt.Errorf("queries[%d]: want 'between S T', 'cross S T', or 'loop U', got %q",
				n, strings.TrimSpace(line))
		}
		if err != nil {
			return nil, nil, fmt.Errorf("queries[%d]: %w", n, err)
		}
		queries = append(queries, qs...)
		for range qs {
			origins = append(origins, n)
		}
	}
	return queries, origins, nil
}
