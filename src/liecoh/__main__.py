from .cli import console

console()
