package query

import (
	"context"
	"fmt"
	"strings"

	"frappe/internal/graph"
)

// Profile is the execution trace of one query: one OpProfile per
// pipeline clause, in execution order, mirroring Cypher's PROFILE. The
// paper's cold/warm analysis (Table 5) attributes latency to index
// lookups vs. pattern expansion; DBHits per operator exposes exactly
// that split per query.
type Profile struct {
	Ops    []OpProfile `json:"operators"`
	Steps  int64       `json:"steps"`  // total expansion steps (== sum of dbHits)
	Rows   int64       `json:"rows"`   // result rows produced
	Millis float64     `json:"millis"` // total wall time
	// Plan is the planner's EXPLAIN rendering (anchor choices, closure
	// rewrites, fallbacks). Empty for a naive run.
	Plan string `json:"plan,omitempty"`
}

// OpProfile is one operator's cost line.
type OpProfile struct {
	Operator string  `json:"operator"` // Start, Match, OptionalMatch, Filter, With, Return
	Detail   string  `json:"detail"`   // rendered clause, e.g. the pattern shape
	Rows     int64   `json:"rows"`     // rows flowing out of the operator
	DBHits   int64   `json:"dbHits"`   // expansion/index steps charged to it
	Millis   float64 `json:"millis"`   // wall time inside the operator
}

// Format renders the profile as an aligned table, one row per operator,
// for `frappe query -profile`.
func (p *Profile) Format() string {
	head := []string{"Operator", "Rows", "DB Hits", "Millis", "Detail"}
	rows := [][]string{head}
	for _, op := range p.Ops {
		rows = append(rows, []string{
			op.Operator,
			fmt.Sprintf("%d", op.Rows),
			fmt.Sprintf("%d", op.DBHits),
			fmt.Sprintf("%.3f", op.Millis),
			op.Detail,
		})
	}
	widths := make([]int, len(head))
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	for ri, r := range rows {
		for i, c := range r {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(r)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		sb.WriteByte('\n')
		if ri == 0 {
			for i, w := range widths {
				if i > 0 {
					sb.WriteString("  ")
				}
				sb.WriteString(strings.Repeat("-", w))
			}
			sb.WriteByte('\n')
		}
	}
	fmt.Fprintf(&sb, "\nTotal: %d rows, %d db hits, %.3f ms\n", p.Rows, p.Steps, p.Millis)
	if p.Plan != "" {
		sb.WriteByte('\n')
		sb.WriteString(p.Plan)
		if !strings.HasSuffix(p.Plan, "\n") {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// RunProfile parses and executes a query text with per-operator tracing.
// The profile is returned even when the query errors (with the
// operators up to the failing one), so aborted queries remain
// diagnosable: the paper's Figure 6 blow-up is visible as a Match
// operator whose dbHits hit the step budget.
func RunProfile(ctx context.Context, src graph.Source, text string, lim Limits) (*Result, *Profile, error) {
	q, err := Parse(text)
	if err != nil {
		return nil, nil, err
	}
	prof := &Profile{}
	res, err := ExecuteHints(ctx, src, q, lim, nil, false, prof)
	return res, prof, err
}

// --- clause rendering ---

// OperatorInfo renders a clause as PROFILE's (operator, detail) pair;
// EXPLAIN reuses it so plans and traces line up.
func OperatorInfo(c Clause) (op, detail string) { return operatorInfo(c) }

// PatternText renders a pattern the way PROFILE details do (exported
// for EXPLAIN output).
func PatternText(p *Pattern) string { return patternText(p) }

// NodePatternText renders one node pattern (exported for EXPLAIN
// output).
func NodePatternText(n *NodePattern) string { return nodePatternText(n) }

// operatorInfo names a clause and renders its shape for profile output.
func operatorInfo(c Clause) (op, detail string) {
	switch t := c.(type) {
	case *StartClause:
		items := make([]string, len(t.Items))
		for i, it := range t.Items {
			items[i] = startItemText(it)
		}
		return "Start", strings.Join(items, ", ")
	case *MatchClause:
		op = "Match"
		if t.Optional {
			op = "OptionalMatch"
		}
		pats := make([]string, len(t.Patterns))
		for i, p := range t.Patterns {
			pats[i] = patternText(p)
		}
		return op, strings.Join(pats, ", ")
	case *WhereClause:
		return "Filter", t.Cond.Text()
	case *WithClause:
		return "With", projectionText(t.Items, t.Distinct)
	case *ReturnClause:
		return "Return", projectionText(t.Items, t.Distinct)
	}
	return "?", ""
}

func startItemText(it StartItem) string {
	switch {
	case it.All:
		return it.Var + " = node(*)"
	case it.IndexName != "":
		return fmt.Sprintf("%s = %s(%q)", it.Var, it.IndexName, it.IndexQuery)
	default:
		ids := make([]string, len(it.IDs))
		for i, id := range it.IDs {
			ids[i] = fmt.Sprintf("%d", id)
		}
		return fmt.Sprintf("%s = node(%s)", it.Var, strings.Join(ids, ","))
	}
}

func projectionText(items []ReturnItem, distinct bool) string {
	cols := make([]string, len(items))
	for i, it := range items {
		cols[i] = it.Expr.Text()
		if it.Alias != "" && it.Alias != cols[i] {
			cols[i] += " AS " + it.Alias
		}
	}
	s := strings.Join(cols, ", ")
	if distinct {
		s = "DISTINCT " + s
	}
	return s
}

func patternText(p *Pattern) string {
	var sb strings.Builder
	if p.PathVar != "" {
		sb.WriteString(p.PathVar)
		sb.WriteString(" = ")
	}
	if p.Shortest {
		sb.WriteString("shortestPath(")
	} else if p.AllShortest {
		sb.WriteString("allShortestPaths(")
	}
	for i, n := range p.Nodes {
		sb.WriteString(nodePatternText(n))
		if i < len(p.Rels) {
			sb.WriteString(relPatternText(p.Rels[i]))
		}
	}
	if p.Shortest || p.AllShortest {
		sb.WriteByte(')')
	}
	return sb.String()
}

func nodePatternText(n *NodePattern) string {
	var sb strings.Builder
	sb.WriteByte('(')
	sb.WriteString(n.Var)
	for _, l := range n.Labels {
		sb.WriteByte(':')
		sb.WriteString(l)
	}
	writeProps(&sb, n.Props)
	sb.WriteByte(')')
	return sb.String()
}

func relPatternText(r *RelPattern) string {
	var sb strings.Builder
	if r.ToLeft {
		sb.WriteByte('<')
	}
	sb.WriteByte('-')
	body := r.Var
	if len(r.Types) > 0 {
		body += ":" + strings.Join(r.Types, "|")
	}
	if r.VarLen {
		body += "*"
		if r.MinHops != 1 || r.MaxHops != 0 {
			body += fmt.Sprintf("%d..", r.MinHops)
			if r.MaxHops > 0 {
				body += fmt.Sprintf("%d", r.MaxHops)
			}
		}
	}
	var props strings.Builder
	writeProps(&props, r.Props)
	body += props.String()
	if body != "" {
		sb.WriteByte('[')
		sb.WriteString(body)
		sb.WriteByte(']')
	}
	sb.WriteByte('-')
	if r.ToRight {
		sb.WriteByte('>')
	}
	return sb.String()
}

func writeProps(sb *strings.Builder, props []PropMatch) {
	if len(props) == 0 {
		return
	}
	sb.WriteByte('{')
	for i, p := range props {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.Key)
		sb.WriteString(": ")
		sb.WriteString(p.Val.String())
	}
	sb.WriteByte('}')
}
