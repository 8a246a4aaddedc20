package directivedata

//apt:frobnicate // want "unknown aptlint directive"
var x int

//apt:allow nosuchanalyzer the analyzer name is checked // want "unknown analyzer"
var y int

// hot is a legitimate hotpath marking: function doc comment.
//
//apt:hotpath
func hot() {}

var v = 1 //apt:hotpath // want "must sit in a function declaration"

// wellFormed suppressions produce no directive findings.
//
//apt:allow simclock a complete, audited suppression
func wellFormed() {}

// //apt:snapshot is no directive: no analyzer reads it.
//
//apt:snapshot // want "unknown aptlint directive //apt:snapshot"
type snapState struct{ Cursor uint64 }

func use() { _, _, _ = x, y, v }
