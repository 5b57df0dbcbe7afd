package plan

// The textual plan-spec grammar of cmd/qdhjrun's -plan flag:
//
//	auto                       cost-model default (uses the shard hint)
//	flat                       single MJoin operator
//	shard | shard:N            key-partitioned flat operator
//	tree                       left-deep spine, natural stream order
//	tree-shard | tree-shard:N  spine with every keyed stage sharded
//	(s-expression)             explicit shape: "((0 1) 2)"; n-ary groups
//	                           fold left-deep; an xN suffix on a group
//	                           shards that stage: "((0 1)x4 2)x4"

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/join"
	"repro/internal/stream"
)

// ParseSpec compiles a plan spec for cond. shards is the hint the named
// forms use when the spec carries no explicit count.
func ParseSpec(spec string, cond *join.Condition, windows []stream.Time, shards int) (*Graph, error) {
	check(cond, windows)
	spec = strings.TrimSpace(spec)
	name, arg, hasArg := strings.Cut(spec, ":")
	n := shards
	if hasArg {
		v, err := strconv.Atoi(arg)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("plan: bad shard count %q in spec %q", arg, spec)
		}
		n = v
	}
	// The sharded named forms need SOME count; default to 4 only when
	// neither the spec nor the hint gave one — an explicit "shard:1" means
	// the single-shard baseline and must stay 1.
	defaulted := n
	if !hasArg && defaulted <= 1 {
		defaulted = 4
	}
	switch name {
	case "auto":
		return Auto(cond, windows, Hints{Shards: n}), nil
	case "flat":
		return FlatGraph(cond, windows), nil
	case "shard":
		return ShardedFlat(cond, windows, defaulted), nil
	case "tree":
		return Spine(cond, windows), nil
	case "tree-shard":
		n = defaulted
		if n <= 1 {
			return Spine(cond, windows), nil
		}
		g := Spine(cond, windows)
		root, keyed := shardStages(cond, g.Root, n)
		if keyed == 0 {
			return nil, fmt.Errorf("plan: tree-shard on a condition with no keyed stage — no stage can be partitioned")
		}
		g.Root = root
		g.Reason = fmt.Sprintf("left-deep tree, keyed stages × %d shards (explicit)", n)
		return g, nil
	}
	if !strings.HasPrefix(spec, "(") {
		return nil, fmt.Errorf("plan: unknown spec %q (want auto|flat|shard[:N]|tree|tree-shard[:N] or an s-expression)", spec)
	}
	p := &specParser{src: spec, cond: cond, seen: make([]bool, cond.M)}
	node, err := p.group()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("plan: trailing input %q in spec", p.src[p.pos:])
	}
	for s, ok := range p.seen {
		if !ok {
			return nil, fmt.Errorf("plan: spec misses stream %d of %d", s, cond.M)
		}
	}
	return &Graph{Cond: cond, Windows: windows, Root: node,
		Reason: "explicit shape spec"}, nil
}

type specParser struct {
	src  string
	pos  int
	cond *join.Condition
	seen []bool // streams parsed so far: a duplicate is refused before any stage is built on it
}

func (p *specParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == ',') {
		p.pos++
	}
}

// group parses "(" item+ ")" ["x" N], folding n-ary groups left-deep.
func (p *specParser) group() (Node, error) {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '(' {
		return nil, fmt.Errorf("plan: expected '(' at %q", p.src[p.pos:])
	}
	p.pos++
	var items []Node
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("plan: unterminated group in spec %q", p.src)
		}
		if p.src[p.pos] == ')' {
			p.pos++
			break
		}
		it, err := p.item()
		if err != nil {
			return nil, err
		}
		items = append(items, it)
	}
	if len(items) < 2 {
		return nil, fmt.Errorf("plan: group needs at least two inputs, got %d", len(items))
	}
	node := items[0]
	for _, r := range items[1:] {
		node = Stage{Left: node, Right: r}
	}
	// Optional xN shard suffix.
	if p.pos < len(p.src) && p.src[p.pos] == 'x' {
		start := p.pos + 1
		end := start
		for end < len(p.src) && p.src[end] >= '0' && p.src[end] <= '9' {
			end++
		}
		n, err := strconv.Atoi(p.src[start:end])
		if err != nil || n < 2 {
			return nil, fmt.Errorf("plan: bad shard suffix %q", p.src[p.pos:end])
		}
		p.pos = end
		st, ok := node.(Stage)
		if !ok {
			return nil, fmt.Errorf("plan: xN suffix on a non-stage group")
		}
		route, keyed := StageRoute(p.cond, st)
		if !keyed {
			return nil, fmt.Errorf("plan: stage %v⋈%v has no equi or band cross key and cannot be sharded",
				st.Left.Streams(), st.Right.Streams())
		}
		node = Shard{N: n, Route: route, Child: st}
	}
	return node, nil
}

func (p *specParser) item() (Node, error) {
	if p.src[p.pos] == '(' {
		return p.group()
	}
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("plan: expected stream index or group at %q", p.src[start:])
	}
	s, _ := strconv.Atoi(p.src[start:p.pos])
	if s >= p.cond.M {
		return nil, fmt.Errorf("plan: stream %d outside [0,%d)", s, p.cond.M)
	}
	if p.seen[s] {
		return nil, fmt.Errorf("plan: spec covers stream %d twice", s)
	}
	p.seen[s] = true
	return Leaf{Stream: s}, nil
}
