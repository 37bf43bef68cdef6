package consistency

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// Parse reads the declarative consistency DSL and returns the specs it
// declares, in file order. The syntax follows the paper's examples
// (§3.3.1, Figure 4):
//
//	# comments run to end of line
//	namespace profiles {
//	  performance: 99.9% reads < 100ms, 99.99% success;
//	  write: last-write-wins;          # or serializable, merge(name)
//	  staleness: 10m;
//	  session: read-your-writes;       # or monotonic-reads, none
//	  durability: 99.999%;
//	  priority: availability > read-consistency;
//	}
func Parse(src string) ([]Spec, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var specs []Spec
	for !p.done() {
		spec, err := p.block()
		if err != nil {
			return nil, err
		}
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("%w (namespace %q)", err, spec.Namespace)
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("consistency: no namespace blocks in input")
	}
	return specs, nil
}

type token struct {
	text string
	line int
}

func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case strings.ContainsRune("{}:;<>(),%", rune(c)):
			toks = append(toks, token{string(c), line})
			i++
		case isWordChar(rune(c)):
			j := i
			for j < len(src) && isWordChar(rune(src[j])) {
				j++
			}
			toks = append(toks, token{src[i:j], line})
			i = j
		default:
			return nil, fmt.Errorf("consistency: line %d: unexpected character %q", line, c)
		}
	}
	return toks, nil
}

func isWordChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '.' || r == '-' || r == '_'
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) done() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() token {
	if p.done() {
		return token{"", -1}
	}
	return p.toks[p.pos]
}

func (p *parser) next() token {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) expect(text string) error {
	t := p.next()
	if t.text != text {
		return fmt.Errorf("consistency: line %d: expected %q, got %q", t.line, text, t.text)
	}
	return nil
}

func (p *parser) block() (Spec, error) {
	var spec Spec
	if err := p.expect("namespace"); err != nil {
		return spec, err
	}
	name := p.next()
	if name.text == "" || strings.ContainsAny(name.text, "{};:") {
		return spec, fmt.Errorf("consistency: line %d: bad namespace name %q", name.line, name.text)
	}
	spec.Namespace = name.text
	if err := p.expect("{"); err != nil {
		return spec, err
	}
	seen := map[string]bool{}
	for p.peek().text != "}" {
		if p.done() {
			return spec, fmt.Errorf("consistency: unterminated namespace block %q", spec.Namespace)
		}
		key := p.next()
		if seen[key.text] {
			return spec, fmt.Errorf("consistency: line %d: duplicate %q clause", key.line, key.text)
		}
		seen[key.text] = true
		if err := p.expect(":"); err != nil {
			return spec, err
		}
		var err error
		switch key.text {
		case "performance":
			err = p.performance(&spec)
		case "write":
			err = p.write(&spec)
		case "staleness":
			err = p.staleness(&spec)
		case "session":
			err = p.session(&spec)
		case "durability":
			err = p.durability(&spec)
		case "priority":
			err = p.priority(&spec)
		default:
			err = fmt.Errorf("consistency: line %d: unknown clause %q", key.line, key.text)
		}
		if err != nil {
			return spec, err
		}
		if err := p.expect(";"); err != nil {
			return spec, err
		}
	}
	if err := p.expect("}"); err != nil {
		return spec, err
	}
	return spec, nil
}

// performance: 99.9% reads < 100ms [, 99.99% success]
func (p *parser) performance(spec *Spec) error {
	pct, err := p.percent()
	if err != nil {
		return err
	}
	kind := p.next()
	if kind.text != "reads" && kind.text != "requests" && kind.text != "writes" {
		return fmt.Errorf("consistency: line %d: expected reads/writes/requests, got %q", kind.line, kind.text)
	}
	if err := p.expect("<"); err != nil {
		return err
	}
	dur, err := p.duration()
	if err != nil {
		return err
	}
	spec.Performance.Percentile = pct
	spec.Performance.LatencyBound = dur
	if p.peek().text == "," {
		p.next()
		sr, err := p.percent()
		if err != nil {
			return err
		}
		if err := p.expect("success"); err != nil {
			return err
		}
		spec.Performance.SuccessRate = sr
	}
	return nil
}

func (p *parser) write(spec *Spec) error {
	t := p.next()
	switch t.text {
	case "last-write-wins":
		spec.Write = LastWriteWins
	case "serializable":
		spec.Write = Serializable
	case "merge":
		if err := p.expect("("); err != nil {
			return err
		}
		fn := p.next()
		if fn.text == "" || fn.text == ")" {
			return fmt.Errorf("consistency: line %d: merge() requires a function name", t.line)
		}
		if err := p.expect(")"); err != nil {
			return err
		}
		spec.Write = MergeFunction
		spec.MergeName = fn.text
	default:
		return fmt.Errorf("consistency: line %d: unknown write mode %q", t.line, t.text)
	}
	return nil
}

func (p *parser) staleness(spec *Spec) error {
	d, err := p.duration()
	if err != nil {
		return err
	}
	spec.Staleness = d
	return nil
}

func (p *parser) session(spec *Spec) error {
	t := p.next()
	switch t.text {
	case "read-your-writes":
		spec.Session = ReadYourWrites
	case "monotonic-reads":
		spec.Session = MonotonicReads
	case "none":
		spec.Session = SessionNone
	default:
		return fmt.Errorf("consistency: line %d: unknown session level %q", t.line, t.text)
	}
	return nil
}

func (p *parser) durability(spec *Spec) error {
	pct, err := p.percent()
	if err != nil {
		return err
	}
	spec.Durability = pct / 100
	return nil
}

func (p *parser) priority(spec *Spec) error {
	for {
		t := p.next()
		spec.Priorities = append(spec.Priorities, Axis(t.text))
		if p.peek().text != ">" {
			return nil
		}
		p.next()
	}
}

func (p *parser) percent() (float64, error) {
	t := p.next()
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, fmt.Errorf("consistency: line %d: bad number %q", t.line, t.text)
	}
	if err := p.expect("%"); err != nil {
		return 0, err
	}
	return v, nil
}

func (p *parser) duration() (time.Duration, error) {
	t := p.next()
	d, err := time.ParseDuration(t.text)
	if err != nil {
		return 0, fmt.Errorf("consistency: line %d: bad duration %q", t.line, t.text)
	}
	if d < 0 {
		return 0, fmt.Errorf("consistency: line %d: negative duration %q", t.line, t.text)
	}
	return d, nil
}
