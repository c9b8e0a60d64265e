// Package textproc provides the language-independent linguistic
// preprocessing of the QATK pipeline (paper §4.4 step 2a): a simple custom
// whitespace-/punctuation tokenizer, a German/English language detector and
// stopword filtering. The paper deliberately relies on steps that work for
// the mixed-language "messy" reports without language-specific tooling.
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/cas"
)

// TypeToken names the token layer the tokenizer fills.
const TypeToken = cas.TypeToken

// Tokenizer is a pipeline engine that segments the document text into word
// tokens at whitespace and punctuation, without further normalization
// beyond lowercasing each token's Norm (the paper works on whitespace- and
// punctuation-tokenized text without stemming, §5.1).
type Tokenizer struct{}

// Name implements pipeline.Engine.
func (Tokenizer) Name() string { return "tokenizer" }

// Process appends every token of the document to the token layer.
//
//qatk:hotpath
func (Tokenizer) Process(c *cas.CAS) error {
	text := c.Text()
	for begin, end := nextToken(text, 0); begin < end; begin, end = nextToken(text, end) {
		//qatk:allowalloc lowering a token that is not lowercase ASCII allocates its norm
		norm := strings.ToLower(text[begin:end])
		//qatk:allowalloc the token layer grows until it fits the longest document
		if err := c.AddToken(cas.Token{Begin: begin, End: end, Norm: norm}); err != nil {
			return err
		}
	}
	return nil
}

// nextToken returns the span of the first token at or after byte i of
// text, or an empty span when there is none. A token is a maximal run of
// letters and digits, where a single hyphen or apostrophe between word
// runes stays inside the token ("o-ring", "don't") — the behaviour of the
// custom tokenizer of §4.5.2.
func nextToken(text string, i int) (begin, end int) {
	for i < len(text) {
		word, size := wordAt(text, i)
		if word {
			break
		}
		i += size
	}
	begin = i
	for i < len(text) {
		if word, size := wordAt(text, i); word {
			i += size
			continue
		}
		if c := text[i]; c == '-' || c == '\'' {
			if word, size := wordAt(text, i+1); word {
				i += 1 + size
				continue
			}
		}
		break
	}
	return begin, i
}

// wordAt reports whether text[i:] starts with a word rune, and that
// rune's size; at the end of text it reports false. An ASCII byte is
// classified through asciiWord; only a byte from 0x80 up is decoded.
func wordAt(text string, i int) (bool, int) {
	if i < len(text) && text[i] < utf8.RuneSelf {
		return asciiWord[text[i]], 1
	}
	r, size := utf8.DecodeRuneInString(text[i:])
	return isWordRune(r), size
}

// asciiWord holds isWordRune of every ASCII byte. Nearly all report text
// is ASCII, so the scan seldom decodes a rune or reaches the Unicode
// tables.
var asciiWord = func() (t [utf8.RuneSelf]bool) {
	for b := range t {
		t[b] = isWordRune(rune(b))
	}
	return t
}()

// Tokens returns the lowercased token strings of text in document order.
func Tokens(text string) []string {
	var out []string
	for begin, end := nextToken(text, 0); begin < end; begin, end = nextToken(text, end) {
		out = append(out, strings.ToLower(text[begin:end]))
	}
	return out
}

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}
