// Package apigate is a fixture module for the internal API gate's test: its
// root package aliases an internal type and calls one of its methods.
package apigate

import "example.com/apigate/internal/widget"

// Widget is the root package's alias of the internal type.
type Widget = widget.Widget

// Size calls one of Widget's methods.
func Size(w Widget) int { return w.Called() }
