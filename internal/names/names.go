// Package names generates and analyses passenger identities.
//
// The Seat Spinning case studies in the paper are detected through passenger
// details, not network features: automated attacks reuse a fixed
// name with a systematically rotating birthdate or draw from a small name
// pool, while manual attacks permute a fixed set of names and introduce
// occasional misspellings. This package produces all of those patterns for
// the attack substrate and provides the string-distance utilities the
// detector uses to recognise them.
package names

import (
	"strings"
	"time"

	"funabuse/internal/simrand"
)

// Identity is one passenger record as submitted on a reservation.
type Identity struct {
	First     string
	Last      string
	Email     string
	BirthDate time.Time
}

// FullName returns "FIRST LAST" in upper case, the canonical form used by
// reservation systems and by the pattern detector.
func (id Identity) FullName() string {
	return strings.ToUpper(id.First + " " + id.Last)
}

// Key returns a stable identity key ignoring the birthdate, used to count
// name reuse across reservations.
func (id Identity) Key() string { return id.FullName() }

var (
	firstNames = []string{
		"JAMES", "MARY", "JOHN", "PATRICIA", "ROBERT",
		"JENNIFER", "MICHAEL", "LINDA", "DAVID", "ELIZABETH",
		"WILLIAM", "BARBARA", "RICHARD", "SUSAN", "JOSEPH",
		"JESSICA", "THOMAS", "SARAH", "CHARLES", "KAREN",
		"CHRISTOPHER", "LISA", "DANIEL", "NANCY", "MATTHEW",
		"BETTY", "ANTHONY", "MARGARET", "MARK", "SANDRA",
		"DONALD", "ASHLEY", "STEVEN", "KIMBERLY", "PAUL",
		"EMILY", "ANDREW", "DONNA", "JOSHUA", "MICHELLE",
		"KENNETH", "CAROL", "KEVIN", "AMANDA", "BRIAN",
		"DOROTHY", "GEORGE", "MELISSA", "EDWARD", "DEBORAH",
		"RONALD", "STEPHANIE", "TIMOTHY", "REBECCA", "JASON",
		"SHARON", "JEFFREY", "LAURA", "RYAN", "CYNTHIA",
		"JACOB", "KATHLEEN", "GARY", "AMY", "NICHOLAS",
		"ANGELA", "ERIC", "SHIRLEY", "JONATHAN", "ANNA",
		"STEPHEN", "BRENDA", "LARRY", "PAMELA", "JUSTIN",
		"EMMA", "SCOTT", "NICOLE", "BRANDON", "HELEN",
		"BENJAMIN", "SAMANTHA", "SAMUEL", "KATHERINE", "GREGORY",
		"CHRISTINE", "FRANK", "DEBRA", "ALEXANDER", "RACHEL",
		"RAYMOND", "CATHERINE", "PATRICK", "CAROLYN", "JACK",
		"JANET", "DENNIS", "RUTH", "JERRY", "MARIA",
		"AHMED", "WEI", "YUKI", "CARLOS", "FATIMA",
		"IVAN", "CHEN", "AISHA", "PIERRE", "INGRID",
		"MATTEO", "SOFIA", "LUCAS", "NOAH", "OLIVIA",
		"LIAM", "AVA", "ETHAN", "MOHAMMED", "PRIYA",
		"HIROSHI", "MEI", "SVEN", "ANIKA", "DIEGO",
		"LUCIA", "ANDRE", "CAMILLE", "STEFAN", "GRETA",
		"PABLO", "ELENA", "MARCO", "GIULIA", "ANTON",
		"KATYA", "OMAR", "LEILA", "RAVI", "ANJALI",
		"KENJI", "SAKURA", "LARS", "FREJA", "MIGUEL",
		"ISABELLA", "HANS", "PETRA", "JUAN", "CARMEN",
		"NIKOLAI", "TATIANA", "HASSAN", "AMIRA", "VIJAY",
		"DEEPA", "TAKESHI", "HANA", "ERIK", "ASTRID",
		"RAFAEL", "BEATRIZ", "KLAUS", "MONIKA", "FERNANDO",
		"ADRIANA", "DMITRI", "OLGA", "KHALED", "NOUR",
		"ARJUN", "KAVYA", "SATOSHI", "AIKO", "BJORN",
		"SIGRID", "PEDRO", "VALENTINA", "WOLFGANG", "HEIDI",
		"ALEJANDRO", "PALOMA", "SERGEI", "IRINA", "TARIQ",
		"ZAINAB", "ROHAN", "ISHA", "KAITO", "YUI",
		"GUSTAV", "LINNEA",
	}
	lastNames = []string{
		"SMITH", "JOHNSON", "WILLIAMS", "BROWN", "JONES",
		"GARCIA", "MILLER", "DAVIS", "RODRIGUEZ", "MARTINEZ",
		"HERNANDEZ", "LOPEZ", "GONZALEZ", "WILSON", "ANDERSON",
		"THOMAS", "TAYLOR", "MOORE", "JACKSON", "MARTIN",
		"LEE", "PEREZ", "THOMPSON", "WHITE", "HARRIS",
		"SANCHEZ", "CLARK", "RAMIREZ", "LEWIS", "ROBINSON",
		"WALKER", "YOUNG", "ALLEN", "KING", "WRIGHT",
		"SCOTT", "TORRES", "NGUYEN", "HILL", "FLORES",
		"GREEN", "ADAMS", "NELSON", "BAKER", "HALL",
		"RIVERA", "CAMPBELL", "MITCHELL", "CARTER", "ROBERTS",
		"GOMEZ", "PHILLIPS", "EVANS", "TURNER", "DIAZ",
		"PARKER", "CRUZ", "EDWARDS", "COLLINS", "REYES",
		"STEWART", "MORRIS", "MORALES", "MURPHY", "COOK",
		"ROGERS", "GUTIERREZ", "ORTIZ", "MORGAN", "COOPER",
		"PETERSON", "BAILEY", "REED", "KELLY", "HOWARD",
		"RAMOS", "KIM", "COX", "WARD", "RICHARDSON",
		"WATSON", "BROOKS", "CHAVEZ", "WOOD", "JAMES",
		"BENNETT", "GRAY", "MENDOZA", "RUIZ", "HUGHES",
		"PRICE", "ALVAREZ", "CASTILLO", "SANDERS", "PATEL",
		"MYERS", "LONG", "ROSS", "FOSTER", "JIMENEZ",
		"POWELL", "JENKINS", "PERRY", "RUSSELL", "SULLIVAN",
		"BELL", "COLEMAN", "BUTLER", "HENDERSON", "BARNES",
		"GONZALES", "FISHER", "VASQUEZ", "SIMMONS", "ROMERO",
		"JORDAN", "PATTERSON", "ALEXANDER", "HAMILTON", "GRAHAM",
		"REYNOLDS", "GRIFFIN", "WALLACE", "MORENO", "WEST",
		"COLE", "HAYES", "BRYANT", "HERRERA", "GIBSON",
		"ELLIS", "TRAN", "MEDINA", "AGUILAR", "STEVENS",
		"MURRAY", "FORD", "CASTRO", "MARSHALL", "OWENS",
		"HARRISON", "FERNANDEZ", "MCDONALD", "WOODS", "WASHINGTON",
		"KENNEDY", "WELLS", "VARGAS", "HENRY", "CHEN",
		"FREEMAN", "WEBB", "TUCKER", "GUZMAN", "BURNS",
		"CRAWFORD", "OLSON", "SIMPSON", "PORTER", "HUNTER",
		"GORDON", "MENDEZ", "SILVA", "SHAW", "SNYDER",
		"MASON", "DIXON", "MUNOZ", "HUNT", "HICKS",
		"HOLMES", "PALMER", "WAGNER", "BLACK", "ROBERTSON",
		"BOYD", "ROSE", "STONE", "SALAZAR", "FOX",
		"WARREN", "MILLS", "MEYER", "RICE", "SCHMIDT",
		"GARZA", "DANIELS", "FERGUSON", "NICHOLS", "STEPHENS",
		"SOTO", "WEAVER", "RYAN", "GARDNER", "PAYNE",
		"GRANT", "DUNN", "KELLEY", "SPENCER", "HAWKINS",
		"ARNOLD", "PIERCE", "VAZQUEZ", "HANSEN", "PETERS",
		"SANTOS", "HART", "BRADLEY", "KNIGHT", "ELLIOTT",
		"CUNNINGHAM", "DUNCAN", "ARMSTRONG", "HUDSON", "CARROLL",
		"LANE", "RILEY", "ANDREWS", "ALVARADO", "RAY",
		"DELGADO", "BERRY", "PERKINS", "HOFFMAN", "JOHNSTON",
		"MATTHEWS", "PENA", "RICHARDS", "CONTRERAS", "WILLIS",
		"CARPENTER", "LAWRENCE", "SANDOVAL", "GUERRERO", "GEORGE",
		"CHAPMAN", "RIOS", "ESTRADA", "ORTEGA", "WATKINS",
		"GREENE", "NUNEZ", "WHEELER", "VALDEZ", "HARPER",
		"BURKE", "LARSON", "SANTIAGO", "MALDONADO", "MORRISON",
		"FRANKLIN", "CARLSON", "AUSTIN", "DOMINGUEZ", "CARR",
		"LAWSON", "JACOBS", "OBRIEN", "LYNCH", "SINGH",
		"VEGA", "BISHOP", "MONTGOMERY", "OLIVER", "JENSEN",
		"HARVEY", "WILLIAMSON", "GILBERT", "DEAN", "SIMS",
		"ESPINOZA", "HOWELL", "LI", "WONG", "REID",
		"HANSON", "LE", "MCCOY", "GARRETT", "BURTON",
		"FULLER", "WANG", "WEBER", "WELCH", "ROJAS",
		"LUCAS", "MARQUEZ", "FIELDS", "PARK", "YANG",
		"LITTLE", "BANKS", "PADILLA", "DAY", "WALSH",
		"BOWMAN", "SCHULTZ", "LUNA", "FOWLER", "MEJIA",
	}
	emailDomains = []string{
		"example.com", "mail.example.org", "inbox.example.net",
		"post.example.info", "webmail.example.co",
	}
)

// Generator produces identities from a deterministic stream.
type Generator struct {
	rng *simrand.RNG
}

// NewGenerator returns a Generator drawing from r.
func NewGenerator(r *simrand.RNG) *Generator { return &Generator{rng: r} }

// Realistic returns a plausible legitimate-passenger identity. Compound
// first and last names keep the combination space large (hundreds of
// thousands of keys), so coincidental full-name reuse across a realistic
// traffic volume stays below the detector's thresholds, as in real
// passenger populations.
func (g *Generator) Realistic() Identity {
	first := simrand.Pick(g.rng, firstNames)
	if g.rng.Bool(0.10) {
		first += "-" + simrand.Pick(g.rng, firstNames)
	}
	last := simrand.Pick(g.rng, lastNames)
	if g.rng.Bool(0.20) {
		last += " " + simrand.Pick(g.rng, lastNames)
	}
	return Identity{
		First:     first,
		Last:      last,
		Email:     emailFor(first, last, g.rng),
		BirthDate: g.randomBirthDate(),
	}
}

// Garbage returns the random-keyboard-mash identity style the paper
// observed on early automated reservations (e.g. "affjgdui ddfjrei").
func (g *Generator) Garbage() Identity {
	first := g.randomLowercase(6 + g.rng.Intn(4))
	last := g.randomLowercase(6 + g.rng.Intn(4))
	return Identity{
		First:     first,
		Last:      last,
		Email:     last + "@" + simrand.Pick(g.rng, emailDomains),
		BirthDate: g.randomBirthDate(),
	}
}

func (g *Generator) randomLowercase(n int) string {
	var b strings.Builder
	b.Grow(n)
	for range n {
		b.WriteByte(byte('a' + g.rng.Intn(26)))
	}
	return b.String()
}

func (g *Generator) randomBirthDate() time.Time {
	year := 1950 + g.rng.Intn(55)
	month := time.Month(1 + g.rng.Intn(12))
	day := 1 + g.rng.Intn(28)
	return time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
}

// emailFor renders "first.last@domain" in lower case. Name parts come from
// the ASCII tables above, so lowering is per byte and the address is built
// in one sized allocation.
func emailFor(first, last string, r *simrand.RNG) string {
	domain := simrand.Pick(r, emailDomains)
	var b strings.Builder
	b.Grow(len(first) + 1 + len(last) + 1 + len(domain))
	writeLower(&b, first)
	b.WriteByte('.')
	writeLower(&b, last)
	b.WriteByte('@')
	b.WriteString(domain)
	return b.String()
}

func writeLower(b *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
}

// Pool is a fixed set of identities an attacker reuses across reservations,
// as observed in the Airline B and Airline C case studies.
type Pool struct {
	rng   *simrand.RNG
	base  []Identity
	seq   int
	birth time.Time
}

// NewPool builds a pool of size n from the generator's stream. The paper's
// Airline C attacker used such a fixed set "in different orders across
// bookings".
func NewPool(r *simrand.RNG, n int) *Pool {
	g := NewGenerator(r)
	base := make([]Identity, n)
	for i := range base {
		base[i] = g.Realistic()
	}
	return &Pool{
		rng:   r,
		base:  base,
		birth: time.Date(1980, time.January, 1, 0, 0, 0, 0, time.UTC),
	}
}

// Permuted returns k identities drawn without replacement in a fresh random
// order — the manual Seat Spinning signature.
func (p *Pool) Permuted(k int) []Identity {
	if k > len(p.base) {
		k = len(p.base)
	}
	perm := p.rng.Perm(len(p.base))
	out := make([]Identity, 0, k)
	for _, idx := range perm[:k] {
		out = append(out, p.base[idx])
	}
	return out
}

// RotatingBirthdate returns the pool's lead identity with a birthdate that
// advances systematically on every call — the Airline B automation
// signature: "the first passenger's name and surname remained unchanged,
// but the birthdate rotated systematically".
func (p *Pool) RotatingBirthdate() Identity {
	id := p.base[0]
	id.BirthDate = p.birth.AddDate(0, 0, p.seq)
	p.seq++
	return id
}

// OverlappingParty returns k identities for one reservation where the first
// passenger uses the rotating-birthdate lead and the rest are pool members
// with fresh birthdates — matching the paper's description of overlapping
// name-surname combinations with varying birthdates.
func (p *Pool) OverlappingParty(k int) []Identity {
	if k < 1 {
		k = 1
	}
	out := make([]Identity, 0, k)
	out = append(out, p.RotatingBirthdate())
	for i := 1; i < k; i++ {
		id := p.base[1+p.rng.Intn(max(1, len(p.base)-1))]
		id.BirthDate = p.birth.AddDate(0, 0, p.seq*31+i)
		out = append(out, id)
	}
	return out
}

// Misspell returns a copy of id with a single-character typo injected into
// the first or last name — the manual-entry signature ("few entries
// contained slight misspellings of names and surnames").
func Misspell(r *simrand.RNG, id Identity) Identity {
	if r.Bool(0.5) {
		id.First = typo(r, id.First)
	} else {
		id.Last = typo(r, id.Last)
	}
	return id
}

// typo applies one of: substitute, transpose, drop, duplicate.
func typo(r *simrand.RNG, s string) string {
	if len(s) < 2 {
		return s + "X"
	}
	b := []byte(s)
	i := r.Intn(len(b) - 1)
	switch r.Intn(4) {
	case 0: // substitute with adjacent letter
		b[i] = 'A' + byte((int(b[i]-'A')+1)%26)
	case 1: // transpose
		b[i], b[i+1] = b[i+1], b[i]
		if b[i] == b[i+1] { // transposing equal letters is a no-op; substitute
			b[i] = 'A' + byte((int(b[i]-'A')+1)%26)
		}
	case 2: // drop
		b = append(b[:i], b[i+1:]...)
	default: // duplicate
		b = append(b[:i+1], b[i:]...)
	}
	return string(b)
}

// dlStackRow is the longest DP row DamerauLevenshtein keeps on the stack.
const dlStackRow = 64

// DamerauLevenshtein returns the optimal-string-alignment edit distance
// between a and b, counting adjacent transpositions as a single edit. Manual
// typos are dominated by substitutions, drops, duplications and
// transpositions, all of which cost 1 under this metric, so the detector
// clusters names at distance <= 1.
func DamerauLevenshtein(a, b string) int {
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	// Three rolling rows: i-2, i-1, i. Passenger names are a few dozen
	// bytes, so the rows normally live in a stack array; longer inputs fall
	// back to the heap.
	w := lb + 1
	var stack [3 * dlStackRow]int
	rows := stack[:]
	if w > dlStackRow {
		rows = make([]int, 3*w)
	}
	prev2, prev, cur := rows[:w], rows[w:2*w], rows[2*w:3*w]
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d := min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				d = min(d, prev2[j-2]+1)
			}
			cur[j] = d
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[lb]
}

// Levenshtein returns the edit distance between a and b. The detector uses
// it to cluster near-identical names produced by manual typos.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}
