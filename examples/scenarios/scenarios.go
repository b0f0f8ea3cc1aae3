// Package scenarios embeds the committed scenario documents E1.json …
// E15.json. Each one is the only definition of the engine searches of
// the internal/bench experiment it names: the experiment runs the
// document's searches in file order and keeps only its bound checks
// and table rendering.
package scenarios

import "embed"

// FS holds every E*.json document of this directory.
//
//go:embed E*.json
var FS embed.FS
