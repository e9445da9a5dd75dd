let twice x = 2 * Shapes.helper x
